// Package apps is the application registry: a central catalog mapping a
// workload name to everything the rest of the system needs to serve it —
// the kernel constructor, the paper-scale granularity (tsize/dsize) or a
// routine deriving it from parameters, the accepted parameter schema
// (e.g. Nash rounds or affine gap penalties), and shape constraints.
//
// The registry is what turns "add a wavefront workload" from a
// cross-cutting edit (daemon switch, every CLI, the docs) into a
// one-file registration: the HTTP daemon resolves named applications
// through Lookup and lists the catalog on GET /v1/apps, the CLIs print
// it with RenderCatalog, and downstream users plug in their own kernels
// through wavefront.RegisterApp without forking. Built-in applications
// (the paper's four plus the extended catalog) register themselves in
// builtin.go.
//
// The catalog is one process-wide registry, safe for concurrent use.
package apps

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"repro/internal/kernels"
	"repro/internal/plan"
	"repro/internal/report"
)

// Values holds named application parameter values, e.g.
// {"rounds": 2} for Nash or {"gap_open": 10} for affine alignment.
// Integer-typed parameters are carried as float64 and validated by
// App.Resolve.
type Values map[string]float64

// ParamSpec describes one accepted parameter of an application.
type ParamSpec struct {
	// Name is the parameter key, a lowercase identifier.
	Name string
	// Description says what the parameter controls.
	Description string
	// Default is the value used when the parameter is omitted; it is
	// ignored when Required is set.
	Default float64
	// Required marks a parameter without a usable default (e.g. the
	// synthetic trainer's tsize); omitting it is an error.
	Required bool
	// Integer requires the supplied value to be integral.
	Integer bool
	// Min and Max bound the accepted values when Min < Max.
	Min, Max float64
}

// check validates a supplied value against the spec.
func (p ParamSpec) check(v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("parameter %q must be finite, got %v", p.Name, v)
	}
	if p.Integer && v != math.Trunc(v) {
		return fmt.Errorf("parameter %q must be an integer, got %v", p.Name, v)
	}
	if p.Min < p.Max && (v < p.Min || v > p.Max) {
		return fmt.Errorf("parameter %q = %v outside [%g, %g]", p.Name, v, p.Min, p.Max)
	}
	return nil
}

// App describes one registered wavefront application.
type App struct {
	// Name is the catalog key, a lowercase identifier.
	Name string
	// Description is the one-line catalog entry (required; the docs CI
	// check enforces that every registered app has one).
	Description string
	// Recurrence is a short rendering of the per-cell recurrence for the
	// catalog table.
	Recurrence string
	// Ref anchors the app in the paper (e.g. "Section 3.2.1") or cites
	// the origin of the recurrence.
	Ref string
	// Params is the accepted parameter schema; requests may only supply
	// these keys.
	Params []ParamSpec
	// SquareOnly constrains the app to square rows == cols instances
	// (e.g. Nussinov folds one sequence of length n on an n x n grid).
	SquareOnly bool
	// Granularity derives the paper-scale tsize/dsize from resolved
	// parameter values. It must be cheap and shape-independent: the
	// daemon calls it per request without building a kernel.
	Granularity func(v Values) (tsize float64, dsize int, err error)
	// Kernel constructs the kernel for a shape and resolved parameter
	// values (functional simulation, wavetune -run, CalibrateTSize).
	Kernel func(rows, cols int, v Values) (kernels.Kernel, error)
	// LiveCells, when set, returns the number of cells of the live
	// region for a masked workload (Nussinov's triangle, a mask's open
	// pixels), in closed form. Like Granularity it must be cheap and
	// must not construct a kernel: the daemon calls it per request to
	// stamp plan.Instance.LiveCells, which scales the cost model. Nil
	// means dense — every cell carries work.
	LiveCells func(rows, cols int, v Values) int
}

// Param returns the spec of the named parameter.
func (a App) Param(name string) (ParamSpec, bool) {
	for _, p := range a.Params {
		if p.Name == name {
			return p, true
		}
	}
	return ParamSpec{}, false
}

// Resolve validates the supplied values against the schema and fills in
// defaults: unknown keys are rejected, required parameters must be
// present, and integer/range constraints are enforced. The input map is
// not modified.
func (a App) Resolve(v Values) (Values, error) {
	for name := range v {
		if _, ok := a.Param(name); !ok {
			return nil, fmt.Errorf("app %q: unknown parameter %q (want %s)",
				a.Name, name, a.paramNames())
		}
	}
	out := Values{}
	for _, p := range a.Params {
		x, ok := v[p.Name]
		if !ok {
			if p.Required {
				return nil, fmt.Errorf("app %q: parameter %q is required", a.Name, p.Name)
			}
			x = p.Default
		}
		if err := p.check(x); err != nil {
			return nil, fmt.Errorf("app %q: %w", a.Name, err)
		}
		out[p.Name] = x
	}
	return out, nil
}

func (a App) paramNames() string {
	if len(a.Params) == 0 {
		return "none"
	}
	names := make([]string, len(a.Params))
	for i, p := range a.Params {
		names[i] = p.Name
	}
	return strings.Join(names, ", ")
}

// DefaultGranularity returns the app's tsize/dsize at default
// parameters. ok is false when the app has no default granularity —
// a required parameter (e.g. the synthetic trainer's tsize) means the
// caller must supply values first.
func (a App) DefaultGranularity() (tsize float64, dsize int, ok bool) {
	v, err := a.Resolve(nil)
	if err != nil {
		return 0, 0, false
	}
	tsize, dsize, err = a.Granularity(v)
	if err != nil {
		return 0, 0, false
	}
	return tsize, dsize, true
}

// CheckShape validates an instance shape against the app's constraints.
func (a App) CheckShape(rows, cols int) error {
	if rows < 1 || cols < 1 {
		return fmt.Errorf("app %q: shape %dx%d invalid", a.Name, rows, cols)
	}
	if a.SquareOnly && rows != cols {
		return fmt.Errorf("app %q requires a square instance, got %dx%d", a.Name, rows, cols)
	}
	return nil
}

// InstanceFor resolves v and builds the plan.Instance for running the
// app at the given shape: the validated parameters drive Granularity,
// and the shape constraint is enforced. The resolved values (supplied
// parameters plus schema defaults) are returned alongside the instance
// so callers can record exactly what the derivation used. This is the
// daemon's per-request path, so it never constructs a kernel.
func (a App) InstanceFor(rows, cols int, v Values) (plan.Instance, Values, error) {
	if err := a.CheckShape(rows, cols); err != nil {
		return plan.Instance{}, nil, err
	}
	rv, err := a.Resolve(v)
	if err != nil {
		return plan.Instance{}, nil, err
	}
	tsize, dsize, err := a.Granularity(rv)
	if err != nil {
		return plan.Instance{}, nil, fmt.Errorf("app %q: %w", a.Name, err)
	}
	inst := plan.Instance{Rows: rows, Cols: cols, TSize: tsize, DSize: dsize}
	if a.LiveCells != nil {
		live := a.LiveCells(rows, cols, rv)
		if live < 0 || live > rows*cols {
			return plan.Instance{}, nil, fmt.Errorf("app %q: live cells %d outside [0,%d]",
				a.Name, live, rows*cols)
		}
		// A full-rectangle count stays dense (LiveCells == 0): the cache
		// key and cost model are unchanged when nothing is masked off.
		if live < rows*cols {
			inst.LiveCells = live
		}
	}
	return inst.Normalize(), rv, nil
}

// NewKernel resolves v and constructs the app's kernel for the shape.
func (a App) NewKernel(rows, cols int, v Values) (kernels.Kernel, error) {
	if err := a.CheckShape(rows, cols); err != nil {
		return nil, err
	}
	rv, err := a.Resolve(v)
	if err != nil {
		return nil, err
	}
	return a.Kernel(rows, cols, rv)
}

// validate checks a registration.
func (a App) validate() error {
	if a.Name == "" {
		return fmt.Errorf("apps: registration with empty name")
	}
	if !validIdent(a.Name) {
		return fmt.Errorf("apps: name %q must be a lowercase identifier ([a-z0-9_-])", a.Name)
	}
	if a.Description == "" {
		return fmt.Errorf("apps: app %q lacks a description (the catalog docs require one)", a.Name)
	}
	if a.Granularity == nil {
		return fmt.Errorf("apps: app %q lacks a Granularity function", a.Name)
	}
	if a.Kernel == nil {
		return fmt.Errorf("apps: app %q lacks a Kernel constructor", a.Name)
	}
	seen := map[string]bool{}
	for _, p := range a.Params {
		if p.Name == "" || !validIdent(p.Name) {
			return fmt.Errorf("apps: app %q: parameter name %q must be a lowercase identifier", a.Name, p.Name)
		}
		if seen[p.Name] {
			return fmt.Errorf("apps: app %q: duplicate parameter %q", a.Name, p.Name)
		}
		seen[p.Name] = true
		if !p.Required {
			if err := p.check(p.Default); err != nil {
				return fmt.Errorf("apps: app %q: default %w", a.Name, err)
			}
		}
	}
	return nil
}

func validIdent(s string) bool {
	for _, r := range s {
		if !(r >= 'a' && r <= 'z' || r >= '0' && r <= '9' || r == '_' || r == '-') {
			return false
		}
	}
	return s != ""
}

// catalog is the process-wide application registry behind the
// package-level functions, the daemon, the CLIs and
// wavefront.RegisterApp; catalogMu guards it.
var (
	catalogMu sync.RWMutex
	catalog   = map[string]App{}
)

// Register validates a and adds it to the catalog. Duplicate names are
// rejected: the catalog is an API surface, and silently replacing an
// entry would change served granularities behind clients' backs.
func Register(a App) error {
	if err := a.validate(); err != nil {
		return err
	}
	catalogMu.Lock()
	defer catalogMu.Unlock()
	if _, dup := catalog[a.Name]; dup {
		return fmt.Errorf("apps: app %q already registered", a.Name)
	}
	catalog[a.Name] = a
	return nil
}

// mustRegister is the builtin-registration helper; a failure is a
// programming error in this package.
func mustRegister(a App) {
	if err := Register(a); err != nil {
		panic(err)
	}
}

// Lookup returns the named app.
func Lookup(name string) (App, bool) {
	catalogMu.RLock()
	defer catalogMu.RUnlock()
	a, ok := catalog[name]
	return a, ok
}

// All returns every registered app sorted by name.
func All() []App {
	catalogMu.RLock()
	defer catalogMu.RUnlock()
	out := make([]App, 0, len(catalog))
	for _, a := range catalog {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Names returns the sorted registered names.
func Names() []string {
	all := All()
	names := make([]string, len(all))
	for i, a := range all {
		names[i] = a.Name
	}
	return names
}

// UnknownAppError builds the error for an unrecognized name, always
// enumerating the current catalog so the message cannot drift from it.
func UnknownAppError(name string) error {
	return fmt.Errorf("unknown app %q (want %s)", name, strings.Join(Names(), ", "))
}

// RenderCatalog renders the catalog as an aligned text table (the
// wavetune -list / wavesweep -apps / waverepro output).
func RenderCatalog() string {
	t := report.NewTable("app", "tsize", "dsize", "params", "shape", "description")
	for _, a := range All() {
		tsize, dsize := "param", "param"
		if ts, ds, ok := a.DefaultGranularity(); ok {
			tsize, dsize = fmt.Sprintf("%g", ts), fmt.Sprintf("%d", ds)
		}
		shape := "any"
		if a.SquareOnly {
			shape = "square"
		}
		t.Add(a.Name, tsize, dsize, a.paramNames(), shape, a.Description)
	}
	return "Application catalog:\n" + t.String()
}
