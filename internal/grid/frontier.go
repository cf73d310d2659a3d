package grid

import "fmt"

// This file generalizes the execution substrate from dense anti-diagonal
// enumeration to explicit wavefront frontiers. A Frontier is an iterator
// over "ready sets": batches of cells that are mutually independent and
// whose dependencies have all been delivered by earlier steps. Executors
// compute one step at a time with a barrier between steps, so any
// dependency-respecting kernel produces identical results through any
// frontier covering the same cells.
//
// Two families are provided:
//
//   - DiagFrontier: the dense special case. Steps are the closed-form
//     anti-diagonals (NumDiagsRect/DiagLenRect/DiagCellRect), so it costs
//     nothing to construct and its step count is known a priori. This is
//     the frontier every regular wavefront workload uses.
//   - IrregularFrontier: the general case, in the spirit of the irregular
//     wavefront propagation patterns of Teodoro et al. The live region is
//     an arbitrary subset of the rectangle (a mask), dependencies are a
//     declared Stencil, and each live cell is delivered at its wavefront
//     level, computed once at construction.
//
// A frontier can dead-end: a stencil inducing a dependency cycle (or a
// self-dependency) leaves some live cells never ready. Cells reports the
// intended coverage, so executors can fail instead of under-computing.

// Cell identifies one grid cell by row and column.
type Cell struct{ R, C int }

// Offset is one relative dependency of a stencil: cell (r, c) depends on
// cell (r+DR, c+DC). Wavefront dependencies point at already-computed
// cells, so useful offsets have DR < 0, or DR == 0 and DC < 0.
type Offset struct{ DR, DC int }

// Stencil is the dependency shape of a kernel: the set of relative
// offsets a cell reads. Executors use it to schedule irregular frontiers;
// the dense diagonal path only relies on the weaker guarantee that every
// dependency lies on an earlier anti-diagonal.
type Stencil []Offset

// DenseStencil returns the classic wavefront dependency cone — west,
// north and northwest — which every paper kernel and the executors'
// barrier discipline are proven against.
func DenseStencil() Stencil {
	return Stencil{{0, -1}, {-1, 0}, {-1, -1}}
}

// Causal reports whether every offset points strictly backwards in
// row-major order (DR < 0, or DR == 0 and DC < 0). A causal stencil can
// never dead-end on a full rectangle; non-causal stencils may induce
// cycles, which frontier construction surfaces as a stuck frontier.
func (s Stencil) Causal() bool {
	for _, o := range s {
		if o.DR > 0 || (o.DR == 0 && o.DC >= 0) {
			return false
		}
	}
	return len(s) > 0
}

// Frontier iterates over the ready cell sets of a wavefront computation.
// Cells within one step are mutually independent; a step's dependencies
// are all contained in earlier steps. Implementations are single-use and
// not safe for concurrent use; the slice returned by Next is only valid
// until the following Next call.
type Frontier interface {
	// Next returns the next ready set; ok is false once the frontier is
	// exhausted (the returned slice is then empty).
	Next() (step []Cell, ok bool)
	// Cells returns the total number of cells the frontier intends to
	// deliver. Executors compare it against the delivered count to
	// detect frontiers that dead-end before covering their region.
	Cells() int
}

// DiagFrontier is the dense frontier: steps are the anti-diagonals of a
// contiguous range, enumerated in closed form. It is the fast special
// case of Frontier that the classic NumDiags/DiagLen/DiagCell helpers
// describe.
type DiagFrontier struct {
	rows, cols int
	lo, hi     int
	d          int
	buf        []Cell
}

// NewDiagFrontier returns the frontier covering every cell of a
// rows x cols grid in anti-diagonal order.
func NewDiagFrontier(rows, cols int) *DiagFrontier {
	return NewDiagRangeFrontier(rows, cols, 0, NumDiagsRect(rows, cols)-1)
}

// NewDiagRangeFrontier returns the dense frontier over anti-diagonals
// [lo, hi] of a rows x cols grid; the range is clamped to the grid.
func NewDiagRangeFrontier(rows, cols, lo, hi int) *DiagFrontier {
	if rows < 1 || cols < 1 {
		panic(fmt.Sprintf("grid: frontier shape must be positive, got %dx%d", rows, cols))
	}
	if lo < 0 {
		lo = 0
	}
	if hi > NumDiagsRect(rows, cols)-1 {
		hi = NumDiagsRect(rows, cols) - 1
	}
	return &DiagFrontier{rows: rows, cols: cols, lo: lo, hi: hi, d: lo}
}

// DiagRange returns the inclusive anti-diagonal range the frontier
// covers. Consumers with closed-form fast paths (the analytic cost
// model, the GPU band planner) use it to bypass step-by-step iteration.
func (f *DiagFrontier) DiagRange() (lo, hi int) { return f.lo, f.hi }

// Next implements Frontier: one anti-diagonal per step.
func (f *DiagFrontier) Next() ([]Cell, bool) {
	if f.d > f.hi {
		return nil, false
	}
	n := DiagLenRect(f.rows, f.cols, f.d)
	if cap(f.buf) < n {
		f.buf = make([]Cell, n)
	}
	step := f.buf[:n]
	for i := 0; i < n; i++ {
		r, c := DiagCellRect(f.rows, f.cols, f.d, i)
		step[i] = Cell{R: r, C: c}
	}
	f.d++
	return step, true
}

// Cells implements Frontier.
func (f *DiagFrontier) Cells() int {
	return CellsInDiagRangeRect(f.rows, f.cols, f.lo, f.hi)
}

// unlevelled marks a dead cell, or a live one no step releases.
const unlevelled = -1

// IrregularFrontier schedules an arbitrary live region (Nussinov's
// triangle, morphological reconstruction on a mask) by wavefront level:
// a live cell is delivered at 1 + the highest level among its live
// stencil predecessors (0 without any). Levels are computed at
// construction; Next buckets them on its first call.
type IrregularFrontier struct {
	rows, cols int
	level      []int32 // per cell, row-major
	total      int     // live cells
	steps      int     // levels
	delivered  int     // levelled cells
	order      []int32 // levelled cells' row-major indices, by level
	start      []int32 // level l is order[start[l]:start[l+1]]
	next       int     // the level Next serves next
	buf        []Cell  // the current step
}

// NewIrregularFrontier builds the frontier over the cells of a
// rows x cols grid for which live returns true (a nil live keeps the
// whole rectangle) under the given stencil. Causal stencils are
// levelled in one row-major pass, others by in-degree propagation,
// which leaves a dependency cycle and the cells behind it unlevelled:
// the frontier comes out stuck. On a full rectangle with the dense
// stencil the levels are exactly the anti-diagonals.
func NewIrregularFrontier(rows, cols int, st Stencil, live func(r, c int) bool) *IrregularFrontier {
	if rows < 1 || cols < 1 {
		panic(fmt.Sprintf("grid: frontier shape must be positive, got %dx%d", rows, cols))
	}
	if len(st) == 0 {
		st = DenseStencil()
	}
	f := &IrregularFrontier{rows: rows, cols: cols, level: make([]int32, rows*cols)}
	if st.Causal() {
		f.levelCausal(st, live)
	} else {
		f.propagate(st, live)
	}
	return f
}

// index returns the row-major index of (r, c) and whether it lies
// inside the grid.
func (f *IrregularFrontier) index(r, c int) (int, bool) {
	return r*f.cols + c, r >= 0 && r < f.rows && c >= 0 && c < f.cols
}

// levelCausal levels the cells in one row-major pass, which reaches a
// causal stencil's predecessors before their cell. Interior cells read
// them through linear index deltas; only cells within the stencil's
// reach of an edge are bounds-checked.
func (f *IrregularFrontier) levelCausal(st Stencil, live func(r, c int) bool) {
	deltas := make([]int, len(st))
	top, left, right := 0, 0, 0 // the stencil's reach up, left and right
	for i, o := range st {
		deltas[i] = o.DR*f.cols + o.DC
		top, left, right = max(top, -o.DR), max(left, -o.DC), max(right, o.DC)
	}
	for r := 0; r < f.rows; r++ {
		for c := 0; c < f.cols; c++ {
			i := r*f.cols + c
			m := int32(unlevelled)
			if live != nil && !live(r, c) {
				f.level[i] = m
				continue
			}
			if r >= top && c >= left && c < f.cols-right {
				for _, d := range deltas {
					m = max(m, f.level[i+d])
				}
			} else {
				for _, o := range st {
					if j, ok := f.index(r+o.DR, c+o.DC); ok {
						m = max(m, f.level[j])
					}
				}
			}
			f.level[i] = m + 1
			f.steps = max(f.steps, int(m)+2) // the highest level, plus one
			f.total++
		}
	}
	f.delivered = f.total
}

// propagate levels the cells by in-degree propagation, for stencils
// that are not causal: the live cells without live predecessors form
// level 0, and each level releases the cells whose last live
// predecessor it holds.
func (f *IrregularFrontier) propagate(st Stencil, live func(r, c int) bool) {
	indeg := make([]int32, len(f.level)) // -1 marks a dead cell
	for i := range f.level {
		f.level[i] = unlevelled
		if live != nil && !live(i/f.cols, i%f.cols) {
			indeg[i] = -1
		} else {
			f.total++
		}
	}
	var ready, next []int32
	for i := range indeg {
		for _, o := range st {
			if j, ok := f.index(i/f.cols+o.DR, i%f.cols+o.DC); ok && indeg[i] >= 0 && indeg[j] >= 0 {
				indeg[i]++
			}
		}
		if indeg[i] == 0 {
			ready = append(ready, int32(i))
		}
	}
	for ; len(ready) > 0; f.steps++ {
		next = next[:0]
		for _, i := range ready {
			f.level[i] = int32(f.steps)
			// A dependency (r+DR, c+DC) -> (r, c) reversed is (r-DR, c-DC).
			for _, o := range st {
				j, ok := f.index(int(i)/f.cols-o.DR, int(i)%f.cols-o.DC)
				if ok && indeg[j] > 0 {
					if indeg[j]--; indeg[j] == 0 {
						next = append(next, int32(j))
					}
				}
			}
		}
		f.delivered += len(ready)
		ready, next = next, ready
	}
}

// bucket sorts the levelled cells by level in one counting pass, which
// keeps each level's cells in row-major order.
func (f *IrregularFrontier) bucket() {
	f.start = make([]int32, f.steps+1)
	for _, lv := range f.level {
		if lv >= 0 {
			f.start[lv+1]++
		}
	}
	widest := int32(0)
	for l := 1; l <= f.steps; l++ {
		widest = max(widest, f.start[l])
		f.start[l] += f.start[l-1]
	}
	fill := append([]int32(nil), f.start...)
	f.order = make([]int32, f.delivered)
	for i, lv := range f.level {
		if lv >= 0 {
			f.order[fill[lv]] = int32(i)
			fill[lv]++
		}
	}
	f.buf = make([]Cell, 0, widest)
}

// Next implements Frontier: the cells of the next level, in row-major
// order.
func (f *IrregularFrontier) Next() ([]Cell, bool) {
	if f.start == nil {
		f.bucket()
	}
	if f.next >= f.steps {
		return nil, false
	}
	f.buf = f.buf[:0]
	for _, i := range f.order[f.start[f.next]:f.start[f.next+1]] {
		f.buf = append(f.buf, Cell{R: int(i) / f.cols, C: int(i) % f.cols})
	}
	f.next++
	return f.buf, true
}

// Cells implements Frontier: the size of the live region.
func (f *IrregularFrontier) Cells() int { return f.total }

// CountFrontier returns the number of steps and cells a fresh f
// delivers: the true step count of an irregular region, which progress
// accounting must use rather than NumDiags. An IrregularFrontier
// answers from its levels, unconsumed, counting only the cells it
// releases when stuck; any other frontier is drained.
func CountFrontier(f Frontier) (steps, cells int) {
	if irr, ok := f.(*IrregularFrontier); ok {
		return irr.steps, irr.delivered
	}
	for {
		step, ok := f.Next()
		if !ok {
			return steps, cells
		}
		steps++
		cells += len(step)
	}
}
