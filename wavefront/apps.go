package wavefront

// The application-registry surface: the central catalog mapping workload
// names to kernels, paper-scale granularity, parameter schemas and shape
// constraints. The daemon resolves named tune/job requests through it
// and lists it on GET /v1/apps; RegisterApp lets downstream code plug a
// custom wavefront workload into all of that without forking, and
// NewAppKernel builds any registered kernel by name.

import "repro/internal/apps"

// App describes one registered wavefront application: its name, catalog
// description, parameter schema, granularity derivation and kernel
// constructor.
type App = apps.App

// AppParam describes one accepted parameter of an App (name, default,
// required/integer/range constraints).
type AppParam = apps.ParamSpec

// AppValues holds named application parameter values (e.g.
// AppValues{"rounds": 2}).
type AppValues = apps.Values

// RegisterApp adds a to the process-wide application catalog, making it
// resolvable by name in POST /v1/tune and POST /v1/jobs, listed in
// GET /v1/apps and the CLI catalogs, and constructible via
// NewAppKernel. Registrations are validated (name, description, kernel
// constructor, granularity, parameter schema); duplicate names are
// rejected. The kernel's cells store A and B as int32: Grid.SetA and
// Grid.SetB keep the low 32 bits of their argument.
func RegisterApp(a App) error { return apps.Register(a) }

// AppByName looks up a registered application.
func AppByName(name string) (App, bool) { return apps.Lookup(name) }

// NewAppKernel resolves values against the named registered
// application's schema and constructs its kernel for the given shape.
func NewAppKernel(name string, rows, cols int, v AppValues) (Kernel, error) {
	a, ok := apps.Lookup(name)
	if !ok {
		return nil, apps.UnknownAppError(name)
	}
	return a.NewKernel(rows, cols, v)
}
