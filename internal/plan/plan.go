// Package plan turns an application instance and a setting of the paper's
// five tunable parameters (Table 2) into a validated three-phase execution
// plan: a leading CPU-tiled triangle, an offloaded band of diagonals on one
// or two GPUs, and a trailing CPU-tiled triangle (Section 2, Figure 2).
package plan

import (
	"fmt"
	"iter"
	"strconv"

	"repro/internal/grid"
)

// Instance is one wavefront problem instance, described by the paper's
// input parameters (Table 1), generalized to rectangular arrays.
type Instance struct {
	// Dim is the side length of a square array — the paper's spelling and
	// the shorthand for rows = cols = Dim. Leave it zero when Rows/Cols
	// are set.
	Dim int
	// Rows and Cols describe a rectangular array (e.g. aligning two
	// sequences of unequal length). When both are zero the instance is the
	// square Dim x Dim array.
	Rows, Cols int
	// TSize is the task granularity in synthetic-kernel iterations.
	TSize float64
	// DSize is the per-element float count (element bytes = 8 + 8*dsize).
	DSize int
	// LiveCells is the number of cells that carry real work when the
	// workload's live region is a strict subset of the rectangle
	// (Nussinov's triangle, a reconstruction mask). Zero means dense:
	// every cell is live. The cost model scales per-cell work by the
	// live fraction, so masked workloads are not charged for their dead
	// cells.
	LiveCells int
}

// Shape is the compatibility accessor between the square and rectangular
// spellings: it returns Rows/Cols when set and falls back to Dim/Dim, so
// call sites written against square instances keep working unchanged.
func (in Instance) Shape() (rows, cols int) {
	if in.Rows > 0 || in.Cols > 0 {
		return in.Rows, in.Cols
	}
	return in.Dim, in.Dim
}

// Square reports whether the instance has equal side lengths.
func (in Instance) Square() bool {
	rows, cols := in.Shape()
	return rows == cols
}

// Cells returns the total number of cells, rows*cols.
func (in Instance) Cells() int {
	rows, cols := in.Shape()
	return rows * cols
}

// WorkCells returns the number of cells that carry real work: LiveCells
// when the instance declares a masked region, and the full rectangle
// otherwise.
func (in Instance) WorkCells() int {
	if in.LiveCells > 0 {
		return in.LiveCells
	}
	return in.Cells()
}

// LiveFrac returns the fraction of the rectangle that carries real work,
// in (0, 1]; dense instances return 1.
func (in Instance) LiveFrac() float64 {
	cells := in.Cells()
	if in.LiveCells <= 0 || cells == 0 {
		return 1
	}
	return float64(in.LiveCells) / float64(cells)
}

// NumDiags returns the number of anti-diagonals, rows+cols-1.
func (in Instance) NumDiags() int {
	rows, cols := in.Shape()
	return grid.NumDiagsRect(rows, cols)
}

// MinSide and MaxSide return the smaller and larger side length.
func (in Instance) MinSide() int {
	rows, cols := in.Shape()
	if rows < cols {
		return rows
	}
	return cols
}

// MaxSide returns the larger side length.
func (in Instance) MaxSide() int {
	rows, cols := in.Shape()
	if rows > cols {
		return rows
	}
	return cols
}

// MidDiag returns the central anti-diagonal index, around which the GPU
// band is centred. For a square instance it is the main diagonal dim-1.
func (in Instance) MidDiag() int { return (in.NumDiags() - 1) / 2 }

// MaxUsefulBand returns the smallest band that makes the offloaded region
// cover every diagonal (dim-1 for a square instance); larger bands are
// legal but equivalent.
func (in Instance) MaxUsefulBand() int {
	mid := in.MidDiag()
	if rest := in.NumDiags() - 1 - mid; rest > mid {
		return rest
	}
	return mid
}

// Normalize fills in both shape spellings: a square Rows/Cols instance
// gains its Dim shorthand and a Dim instance gains Rows/Cols, so
// equivalent instances compare equal.
func (in Instance) Normalize() Instance {
	rows, cols := in.Shape()
	in.Rows, in.Cols = rows, cols
	if rows == cols {
		in.Dim = rows
	} else {
		in.Dim = 0
	}
	return in
}

// ElemBytes returns the modeled element size of the instance.
func (in Instance) ElemBytes() int { return grid.ElemBytes(in.DSize) }

// ShapeString renders the shape in the search-CSV spelling: a bare
// integer for square instances ("1900") and "rowsxcols" for rectangular
// ones ("600x1400").
func (in Instance) ShapeString() string {
	rows, cols := in.Shape()
	if rows != cols {
		return fmt.Sprintf("%dx%d", rows, cols)
	}
	return fmt.Sprintf("%d", rows)
}

// CacheKey returns a stable canonical encoding of the instance for use as
// a plan-cache key. Equivalent spellings collide: Dim=n and Rows=Cols=n
// produce the same key, and the shape field matches ShapeString (and thus
// the search-CSV dim column). TSize uses the shortest exact float
// rendering, so keys are reproducible across processes.
func (in Instance) CacheKey() string {
	n := in.Normalize()
	// Appended on the stack: the returned string is the one allocation.
	var buf [64]byte
	key := strconv.AppendInt(buf[:0], int64(n.Rows), 10)
	if n.Rows != n.Cols {
		key = append(key, 'x')
		key = strconv.AppendInt(key, int64(n.Cols), 10)
	}
	key = append(key, "|t="...)
	key = strconv.AppendFloat(key, n.TSize, 'g', -1, 64)
	key = append(key, "|d="...)
	key = strconv.AppendInt(key, int64(n.DSize), 10)
	if n.LiveCells > 0 {
		// Masked instances tune differently from dense ones of the same
		// shape, so the live-cell count participates in the key. Dense
		// instances keep the historical key unchanged.
		key = append(key, "|live="...)
		key = strconv.AppendInt(key, int64(n.LiveCells), 10)
	}
	return string(key)
}

// Validate reports whether the instance is well-formed.
func (in Instance) Validate() error {
	rows, cols := in.Shape()
	if rows < 1 || cols < 1 {
		return fmt.Errorf("plan: shape %dx%d invalid (dim %d)", rows, cols, in.Dim)
	}
	if in.Dim > 0 && (in.Rows > 0 || in.Cols > 0) && (in.Rows != in.Dim || in.Cols != in.Dim) {
		return fmt.Errorf("plan: dim %d inconsistent with shape %dx%d", in.Dim, in.Rows, in.Cols)
	}
	if !(in.TSize > 0) {
		return fmt.Errorf("plan: tsize %v must be positive", in.TSize)
	}
	if in.DSize < 0 {
		return fmt.Errorf("plan: dsize %d < 0", in.DSize)
	}
	if in.LiveCells < 0 || in.LiveCells > rows*cols {
		return fmt.Errorf("plan: live cells %d outside [0,%d]", in.LiveCells, rows*cols)
	}
	return nil
}

// String implements fmt.Stringer.
func (in Instance) String() string {
	s := ""
	if rows, cols := in.Shape(); rows != cols {
		s = fmt.Sprintf("rows=%d cols=%d tsize=%g dsize=%d", rows, cols, in.TSize, in.DSize)
	} else if in.Dim == 0 {
		s = fmt.Sprintf("dim=%d tsize=%g dsize=%d", rows, in.TSize, in.DSize)
	} else {
		s = fmt.Sprintf("dim=%d tsize=%g dsize=%d", in.Dim, in.TSize, in.DSize)
	}
	if in.LiveCells > 0 {
		s += fmt.Sprintf(" live=%d", in.LiveCells)
	}
	return s
}

// Params is a setting of the paper's tunable parameters (Table 2). As in
// the paper, gpu-count is overloaded onto Band and Halo: Band = -1 means
// the GPU is not used at all; Halo = -1 means a single GPU; Halo >= 0
// means two GPUs exchanging halos of that size.
type Params struct {
	// CPUTile is the side length of the square CPU tiles.
	CPUTile int
	// Band is the number of diagonals on each side of the main diagonal
	// offloaded to the GPU(s); 2*Band+1 diagonals in total. -1 disables
	// the GPU phase entirely.
	Band int
	// GPUTile is the GPU work-group tiling factor (1 = untiled).
	GPUTile int
	// Halo is the overlap between the two GPUs' partitions; -1 selects a
	// single GPU.
	Halo int
}

// GPUCount decodes the overloaded gpu-count: 0, 1 or 2.
func (p Params) GPUCount() int {
	switch {
	case p.Band < 0:
		return 0
	case p.Halo < 0:
		return 1
	default:
		return 2
	}
}

// String implements fmt.Stringer.
func (p Params) String() string {
	return fmt.Sprintf("cpu-tile=%d band=%d gpu-count=%d gpu-tile=%d halo=%d",
		p.CPUTile, p.Band, p.GPUCount(), p.GPUTile, p.Halo)
}

// Normalize returns p with the GPU-phase parameters canonicalized: when
// the GPU is unused, gpu-tile and halo are forced to their neutral values
// so that equivalent configurations compare equal and the search space
// contains no duplicate all-CPU points.
func (p Params) Normalize() Params {
	if p.Band < 0 {
		p.Band = -1
		p.GPUTile = 1
		p.Halo = -1
	}
	if p.GPUTile < 1 {
		p.GPUTile = 1
	}
	return p
}

// Plan is a validated three-phase decomposition. Diagonal ranges are
// inclusive; a range with Lo > Hi is empty.
type Plan struct {
	Inst Instance
	Par  Params

	// P1Lo..P1Hi are phase 1's diagonals (leading CPU triangle).
	P1Lo, P1Hi int
	// GLo..GHi are phase 2's offloaded diagonals.
	GLo, GHi int
	// P3Lo..P3Hi are phase 3's diagonals (trailing CPU triangle).
	P3Lo, P3Hi int
}

// Build validates inst and par and constructs the three-phase plan.
func Build(inst Instance, par Params) (*Plan, error) {
	pl, err := layout(inst, par)
	if err != nil {
		return nil, err
	}
	return &pl, nil
}

// Check returns the error Build would return for inst and par, without
// allocating a plan: searches validate their candidates through it.
func Check(inst Instance, par Params) error {
	_, err := layout(inst, par)
	return err
}

// layout validates inst and par and lays out the three phases; it is the
// one validity check behind Build and Check.
func layout(inst Instance, par Params) (Plan, error) {
	if err := inst.Validate(); err != nil {
		return Plan{}, err
	}
	if par.CPUTile < 1 {
		return Plan{}, fmt.Errorf("plan: cpu-tile %d < 1", par.CPUTile)
	}
	if par.CPUTile > inst.MaxSide() {
		return Plan{}, fmt.Errorf("plan: cpu-tile %d exceeds max side %d", par.CPUTile, inst.MaxSide())
	}
	maxBand := inst.NumDiags()
	if par.Band < -1 || par.Band > maxBand {
		return Plan{}, fmt.Errorf("plan: band %d outside [-1,%d]", par.Band, maxBand)
	}
	if par.GPUTile < 1 || par.GPUTile > 64 {
		return Plan{}, fmt.Errorf("plan: gpu-tile %d outside [1,64]", par.GPUTile)
	}
	par = par.Normalize()

	d := inst.NumDiags()
	pl := Plan{Inst: inst, Par: par}
	if par.Band < 0 {
		// All-CPU: one CPU phase covering everything; GPU and phase 3 empty.
		pl.P1Lo, pl.P1Hi = 0, d-1
		pl.GLo, pl.GHi = 1, 0
		pl.P3Lo, pl.P3Hi = 1, 0
		return pl, nil
	}

	mid := inst.MidDiag()
	lo, hi := mid-par.Band, mid+par.Band
	if lo < 0 {
		lo = 0
	}
	if hi > d-1 {
		hi = d - 1
	}
	pl.GLo, pl.GHi = lo, hi
	pl.P1Lo, pl.P1Hi = 0, lo-1
	pl.P3Lo, pl.P3Hi = hi+1, d-1

	if par.Halo >= 0 {
		if max := pl.MaxHalo(); par.Halo > max {
			return Plan{}, fmt.Errorf("plan: halo %d exceeds max %d (half of first offloaded diagonal)",
				par.Halo, max)
		}
	} else if par.Halo < -1 {
		return Plan{}, fmt.Errorf("plan: halo %d < -1", par.Halo)
	}
	return pl, nil
}

// MaxHalo returns the largest permitted halo for this plan: half the
// length of the first offloaded diagonal (Table 3), or -1 when the GPU is
// unused.
func (p *Plan) MaxHalo() int {
	if p.Par.Band < 0 {
		return -1
	}
	rows, cols := p.Inst.Shape()
	return grid.DiagLenRect(rows, cols, p.GLo) / 2
}

// MaxHaloFor computes the halo cap for an instance and band without
// building a plan; it returns -1 when band < 0.
func MaxHaloFor(inst Instance, band int) int {
	if band < 0 {
		return -1
	}
	mid := inst.MidDiag()
	lo := mid - band
	if lo < 0 {
		lo = 0
	}
	rows, cols := inst.Shape()
	return grid.DiagLenRect(rows, cols, lo) / 2
}

// GPUDiags returns the number of offloaded diagonals (0 when the GPU is
// unused).
func (p *Plan) GPUDiags() int {
	if p.GHi < p.GLo {
		return 0
	}
	return p.GHi - p.GLo + 1
}

// GPUCells returns the number of cells in the offloaded band.
func (p *Plan) GPUCells() int {
	rows, cols := p.Inst.Shape()
	return grid.CellsInDiagRangeRect(rows, cols, p.GLo, p.GHi)
}

// SwapPeriod returns the number of diagonals between halo exchanges when
// two GPUs are used: the halo size, with a minimum of one (a halo of zero
// still requires boundary data after every diagonal).
func (p *Plan) SwapPeriod() int {
	if p.Par.Halo < 1 {
		return 1
	}
	return p.Par.Halo
}

// RedundantPoints returns the modeled number of extra cell computations
// caused by the overlap between the two GPUs: after each swap the overlap
// starts at halo and shrinks by one per diagonal, so each period
// recomputes about halo*(halo+1)/2 cells on each device (Section 2.1's
// communication/recomputation trade-off).
func (p *Plan) RedundantPoints() int {
	if p.Par.GPUCount() != 2 || p.Par.Halo <= 0 {
		return 0
	}
	h := p.Par.Halo
	periods := (p.GPUDiags() + p.SwapPeriod() - 1) / p.SwapPeriod()
	return periods * h * (h + 1) / 2 * 2
}

// TileDiag describes one tile-diagonal of a CPU phase: NTiles tiles that
// can run in parallel, jointly covering Cells cells of the phase region.
type TileDiag struct {
	NTiles int
	Cells  int
}

// CPUTileDiagsRect yields the tile-diagonals of the CPU phase covering
// cell-diagonals [lo, hi] of a rows x cols grid with square tiles of side
// ct, in execution order. Tile-diagonal t groups the cells whose diagonal
// index lies in [t*ct, (t+1)*ct-1] — these spans partition the diagonal
// space, so the Cells fields sum exactly to the region size. NTiles is the
// width of the tile wavefront at t, which bounds the parallelism available
// to the executor. An empty region (hi < lo) yields nothing.
func CPUTileDiagsRect(rows, cols, ct, lo, hi int) iter.Seq[TileDiag] {
	return func(yield func(TileDiag) bool) {
		if hi < lo {
			return
		}
		nTr := (rows + ct - 1) / ct
		nTc := (cols + ct - 1) / ct
		for t := lo / ct; t <= hi/ct; t++ {
			cLo, cHi := t*ct, (t+1)*ct-1
			if cLo < lo {
				cLo = lo
			}
			if cHi > hi {
				cHi = hi
			}
			cells := grid.CellsInDiagRangeRect(rows, cols, cLo, cHi)
			if cells == 0 {
				continue
			}
			n := min(min(t+1, nTr+nTc-1-t), min(nTr, nTc))
			if n < 1 {
				n = 1
			}
			if !yield(TileDiag{NTiles: n, Cells: cells}) {
				return
			}
		}
	}
}
