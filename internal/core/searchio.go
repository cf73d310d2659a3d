package core

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/engine"
	"repro/internal/hw"
	"repro/internal/plan"
)

// Search-result persistence: an exhaustive sweep is the expensive artifact
// of the workflow ("trained in the factory"), so it can be written as CSV
// by wavesweep and reloaded later for training without re-running the
// search.

// searchCSVHeader is the current column layout; the trailing app column
// names the application the row was measured under ("synthetic" for
// exhaustive sweeps, the submitted app for observation-log rows, empty
// when unknown).
const searchCSVHeader = "system,dim,tsize,dsize,cpu_tile,band,gpu_tile,halo,rtime_ns,censored,app"

// shapeField renders the dim column: a bare integer for square instances
// (the original format) and "rowsxcols" for rectangular ones. The
// spelling is shared with plan-cache keys via Instance.ShapeString.
func shapeField(inst plan.Instance) string { return inst.ShapeString() }

// writeSearchRow writes one data row of the search-CSV format. It is the
// single definition of the column layout, shared by SearchResult.WriteCSV
// and ObservationLog.Append so the two writers cannot drift apart.
func writeSearchRow(w io.Writer, system string, inst plan.Instance, par plan.Params, rtimeNs float64, censored bool, app string) {
	fmt.Fprintf(w, "%s,%s,%s,%d,%d,%d,%d,%d,%s,%t,%s\n",
		system, shapeField(inst),
		strconv.FormatFloat(inst.TSize, 'g', -1, 64), inst.DSize,
		par.CPUTile, par.Band, par.GPUTile, par.Halo,
		strconv.FormatFloat(rtimeNs, 'g', -1, 64), censored, app)
}

// ParseShape parses the shared shape spelling — a bare integer for
// square instances or "rowsxcols" for rectangular ones, the same
// grammar as the search-CSV dim column and Instance.ShapeString — into
// rows and cols. CLI surfaces (wavetune -batch) reuse it so the shape
// spelling cannot drift between the CSV reader and the clients.
func ParseShape(s string) (rows, cols int, err error) {
	inst, err := parseShapeField(strings.TrimSpace(s))
	if err != nil {
		return 0, 0, fmt.Errorf("core: bad shape %q (want 1900 or 600x1400)", s)
	}
	rows, cols = inst.Shape()
	return rows, cols, nil
}

// parseShapeField inverts shapeField into an instance shape.
func parseShapeField(s string) (plan.Instance, error) {
	if r, c, ok := strings.Cut(s, "x"); ok {
		rows, err1 := strconv.Atoi(r)
		cols, err2 := strconv.Atoi(c)
		if err1 != nil || err2 != nil {
			return plan.Instance{}, fmt.Errorf("bad shape %q", s)
		}
		return plan.Instance{Rows: rows, Cols: cols}, nil
	}
	dim, err := strconv.Atoi(s)
	if err != nil {
		return plan.Instance{}, err
	}
	return plan.Instance{Dim: dim}, nil
}

// SearchRow is one parsed data row of the search-CSV format: the
// per-measurement record shared by sweep files and observation logs.
// Parsing is purely syntactic — semantic checks (known system, valid
// plan, positive runtime) belong to the reader that knows the context.
type SearchRow struct {
	System   string
	Inst     plan.Instance
	Par      plan.Params
	RTimeNs  float64
	Censored bool
	App      string
}

// parseSearchRow parses one trimmed data row (not the header) of the
// search-CSV format; its callers wrap errors with line numbers. It
// inverts writeSearchRow: a row that parses re-renders to a row that
// parses to the same values.
func parseSearchRow(text string) (SearchRow, error) {
	f := strings.Split(text, ",")
	if len(f) != 11 {
		return SearchRow{}, fmt.Errorf("%d fields, want 11", len(f))
	}
	shape, err := parseShapeField(f[1])
	if err != nil {
		return SearchRow{}, fmt.Errorf("field 1: %v", err)
	}
	ints := make([]int, 0, 5)
	for _, idx := range []int{3, 4, 5, 6, 7} {
		v, err := strconv.Atoi(f[idx])
		if err != nil {
			return SearchRow{}, fmt.Errorf("field %d: %v", idx, err)
		}
		ints = append(ints, v)
	}
	tsize, err := strconv.ParseFloat(f[2], 64)
	if err != nil {
		return SearchRow{}, err
	}
	rtime, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return SearchRow{}, err
	}
	censored, err := strconv.ParseBool(f[9])
	if err != nil {
		return SearchRow{}, err
	}
	row := SearchRow{System: f[0], RTimeNs: rtime, Censored: censored, App: f[10]}
	row.Inst = shape
	row.Inst.TSize, row.Inst.DSize = tsize, ints[0]
	row.Par = plan.Params{CPUTile: ints[1], Band: ints[2], GPUTile: ints[3], Halo: ints[4]}
	return row, nil
}

// WriteCSV streams every evaluated point of the search result.
func (sr *SearchResult) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, searchCSVHeader)
	for i := range sr.Instances {
		ir := &sr.Instances[i]
		for _, p := range ir.Points {
			// Exhaustive sweeps evaluate the paper's synthetic trainer.
			writeSearchRow(bw, sr.Sys.Name, p.Inst, p.Par, p.RTimeNs, p.Censored, "synthetic")
		}
	}
	return bw.Flush()
}

// ReadCSV reconstructs a search result written by WriteCSV. The space is
// rebuilt from the observed instance grid (band/halo fractions are not
// recoverable and are left empty; training does not need them).
func ReadCSV(r io.Reader) (*SearchResult, error) {
	sc, err := scanSearchCSV(r, "search CSV")
	if err != nil {
		return nil, err
	}
	var rows *searchRows
	line := 1
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		// The trailing app field is metadata for humans and tooling;
		// training ignores it.
		row, err := parseSearchRow(text)
		if err != nil {
			return nil, fmt.Errorf("core: line %d: %v", line, err)
		}
		if rows == nil {
			sys, ok := hw.ByName(row.System)
			if !ok {
				return nil, fmt.Errorf("core: line %d: unknown system %q", line, row.System)
			}
			rows = newSearchRows(sys)
		} else if rows.sys.Name != row.System {
			return nil, fmt.Errorf("core: line %d: mixed systems %q and %q", line, rows.sys.Name, row.System)
		}
		rows.add(row)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if rows == nil {
		return nil, fmt.Errorf("core: search CSV has no data rows")
	}
	return rows.result(), nil
}

// ReadObservationLog reads a per-system observation log leniently: rows
// that fail to parse, name a different system, or carry values no valid
// plan could produce (a corrupt or torn append) are skipped and counted
// rather than failing the load, because a single bad row must not stall
// retraining on an otherwise healthy log. The strictness difference from
// ReadCSV is deliberate — sweep files are write-once artifacts where
// corruption should be loud, observation logs are long-lived append
// targets where it should be survivable. Returns the number of rows
// skipped alongside the result; errors only when the header is wrong or
// no usable row remains.
func ReadObservationLog(r io.Reader, system string) (*SearchResult, int, error) {
	sys, ok := hw.ByName(system)
	if !ok {
		return nil, 0, fmt.Errorf("core: unknown system %q", system)
	}
	sc, err := scanSearchCSV(r, "observation log")
	if err != nil {
		return nil, 0, err
	}
	rows := newSearchRows(sys)
	bad := 0
	for sc.Scan() {
		text := strings.TrimSpace(sc.Text())
		if text == "" || text == searchCSVHeader {
			continue
		}
		row, err := parseSearchRow(text)
		if err != nil || row.System != system || row.RTimeNs <= 0 || plan.Check(row.Inst, row.Par) != nil {
			bad++
			continue
		}
		rows.add(row)
	}
	if err := sc.Err(); err != nil {
		return nil, bad, err
	}
	if len(rows.order) == 0 {
		return nil, bad, fmt.Errorf("core: observation log for %s has no usable rows", system)
	}
	return rows.result(), bad, nil
}

// scanSearchCSV returns a line scanner over r positioned after the
// search-CSV header, which it checks; what names the file kind in
// errors.
func scanSearchCSV(r io.Reader, what string) (*bufio.Scanner, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	if !sc.Scan() {
		return nil, fmt.Errorf("core: empty %s", what)
	}
	if got := strings.TrimSpace(sc.Text()); got != searchCSVHeader {
		return nil, fmt.Errorf("core: unexpected %s header %q", what, got)
	}
	return sc, nil
}

// searchRows accumulates one system's parsed rows into per-instance
// results, in first-seen instance order; ReadCSV and ReadObservationLog
// share it and differ only in which rows they accept.
type searchRows struct {
	sys    hw.System
	byInst map[plan.Instance]*InstanceResult
	order  []plan.Instance
}

func newSearchRows(sys hw.System) *searchRows {
	return &searchRows{sys: sys, byInst: map[plan.Instance]*InstanceResult{}}
}

func (a *searchRows) add(row SearchRow) {
	ir, ok := a.byInst[row.Inst]
	if !ok {
		ir = &InstanceResult{Inst: row.Inst, SerialNs: engine.SerialNs(a.sys, row.Inst)}
		a.byInst[row.Inst] = ir
		a.order = append(a.order, row.Inst)
	}
	ir.Points = append(ir.Points, Point{Inst: row.Inst, Par: row.Par, RTimeNs: row.RTimeNs, Censored: row.Censored})
}

// result assembles the search result, rebuilding its space from the
// observed instances.
func (a *searchRows) result() *SearchResult {
	sr := &SearchResult{Sys: a.sys, Space: spaceFromInstances(a.order)}
	for _, inst := range a.order {
		sr.Instances = append(sr.Instances, *a.byInst[inst])
	}
	return sr
}

// spaceFromInstances rebuilds the instance grid (dims, rect shapes,
// tsizes, dsizes) of a loaded search so training's regular sampling works.
func spaceFromInstances(insts []plan.Instance) Space {
	dimSet := map[int]bool{}
	rectSet := map[[2]int]bool{}
	tsSet := map[float64]bool{}
	dsSet := map[int]bool{}
	for _, in := range insts {
		if rows, cols := in.Shape(); rows != cols {
			rectSet[[2]int{rows, cols}] = true
		} else {
			dimSet[rows] = true
		}
		tsSet[in.TSize] = true
		dsSet[in.DSize] = true
	}
	var s Space
	for d := range dimSet {
		s.Dims = append(s.Dims, d)
	}
	for rc := range rectSet {
		s.Rects = append(s.Rects, rc)
	}
	sort.Slice(s.Rects, func(i, j int) bool {
		if s.Rects[i][0] != s.Rects[j][0] {
			return s.Rects[i][0] < s.Rects[j][0]
		}
		return s.Rects[i][1] < s.Rects[j][1]
	})
	for t := range tsSet {
		s.TSizes = append(s.TSizes, t)
	}
	for d := range dsSet {
		s.DSizes = append(s.DSizes, d)
	}
	sort.Ints(s.Dims)
	sort.Float64s(s.TSizes)
	sort.Ints(s.DSizes)
	return s
}
