// Package grid provides the data substrate for 2D wavefront computations:
// a rectangular array of cells, each holding two 32-bit integer variables
// and a configurable number of float64s (the paper's dsize), together with
// anti-diagonal indexing helpers that every other layer builds on. A cell
// occupies exactly ElemBytes(dsize) bytes, the element the cost model
// prices.
//
// A wavefront sweeps a rows x cols array from (0,0) towards
// (rows-1,cols-1) in anti-diagonal bands: diagonal d contains all cells
// (r,c) with r+c == d. Cell (r,c) may depend on its west (r,c-1), north
// (r-1,c) and northwest (r-1,c-1) neighbours, all of which lie on
// diagonals d-1 and d-2, so the diagonals form a linear dependence chain
// while cells within one diagonal are independent — the data parallelism
// the paper exploits on GPUs.
//
// The paper's experiments use square dim x dim arrays, the rows == cols
// case of NewRect and the *Rect helpers; rectangular grids (e.g. aligning
// two sequences of unequal length) use the same calls. A rows x cols grid
// has rows+cols-1 anti-diagonals whose lengths rise 1,2,...,min(rows,cols),
// plateau, and fall back to 1 (a clipped version of the square triangular
// profile).
package grid

import (
	"fmt"
	"slices"
)

// Grid is a rectangular wavefront array with structure-of-arrays storage:
// two int32 variables and DSize float64 values per cell, the paper's
// synthetic element of "two int variables and a varying number of floats".
// A cell therefore takes ElemBytes(DSize) bytes, 8 plus 8 per float.
// Storage is row-major.
type Grid struct {
	rows  int
	cols  int
	dsize int
	// IntA and IntB are the two integer variables of each cell.
	IntA []int32
	IntB []int32
	// Floats holds dsize consecutive float64 values per cell.
	Floats []float64
}

// NewRect allocates a rows x cols grid whose cells carry dsize floats
// each. It panics if rows <= 0, cols <= 0 or dsize < 0, as these are
// programming errors.
func NewRect(rows, cols, dsize int) *Grid {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("grid: shape must be positive, got %dx%d", rows, cols))
	}
	if dsize < 0 {
		panic(fmt.Sprintf("grid: dsize must be non-negative, got %d", dsize))
	}
	n := rows * cols
	g := &Grid{
		rows:  rows,
		cols:  cols,
		dsize: dsize,
		IntA:  make([]int32, n),
		IntB:  make([]int32, n),
	}
	if dsize > 0 {
		g.Floats = make([]float64, n*dsize)
	}
	return g
}

// Rows returns the number of rows of the grid.
func (g *Grid) Rows() int { return g.rows }

// Cols returns the number of columns of the grid.
func (g *Grid) Cols() int { return g.cols }

// DSize returns the number of floats per cell.
func (g *Grid) DSize() int { return g.dsize }

// Index returns the row-major index of cell (r, c).
func (g *Grid) Index(r, c int) int { return r*g.cols + c }

// Float returns the k-th float of cell (r, c).
func (g *Grid) Float(r, c, k int) float64 {
	return g.Floats[g.Index(r, c)*g.dsize+k]
}

// SetFloat sets the k-th float of cell (r, c).
func (g *Grid) SetFloat(r, c, k int, v float64) {
	g.Floats[g.Index(r, c)*g.dsize+k] = v
}

// A returns integer variable A of cell (r, c), widened to int64.
func (g *Grid) A(r, c int) int64 { return int64(g.IntA[g.Index(r, c)]) }

// B returns integer variable B of cell (r, c), widened to int64.
func (g *Grid) B(r, c int) int64 { return int64(g.IntB[g.Index(r, c)]) }

// SetA sets integer variable A of cell (r, c). It keeps the low 32 bits of
// v, so A reads back int64(int32(v)); kernels keep their values in int32
// range.
func (g *Grid) SetA(r, c int, v int64) { g.IntA[g.Index(r, c)] = int32(v) }

// SetB sets integer variable B of cell (r, c). It keeps the low 32 bits of
// v, so B reads back int64(int32(v)).
func (g *Grid) SetB(r, c int, v int64) { g.IntB[g.Index(r, c)] = int32(v) }

// ElemBytes returns the size in bytes of one cell: 8 bytes for the two
// int32 variables plus 8 bytes per float64, so dsize=5 gives the paper's
// 48-byte element and dsize=1 its 16-byte element. A Grid stores exactly
// this many bytes per cell.
func ElemBytes(dsize int) int { return 8 + 8*dsize }

// NumDiagsRect returns the number of anti-diagonals of a rows x cols grid,
// rows+cols-1.
func NumDiagsRect(rows, cols int) int { return rows + cols - 1 }

// DiagLenRect returns the number of cells on anti-diagonal d of a
// rows x cols grid: the diagonal is clipped to the rectangle, so lengths
// rise 1,2,...,min(rows,cols), stay there across the plateau, and fall
// back to 1 (the trapezoidal parallelism profile of a rectangular
// wavefront; a square grid has no plateau, the triangular profile of
// the paper's Figure 1(b)).
func DiagLenRect(rows, cols, d int) int {
	if d < 0 || d > rows+cols-2 {
		return 0
	}
	lo := d - cols + 1
	if lo < 0 {
		lo = 0
	}
	hi := d
	if hi > rows-1 {
		hi = rows - 1
	}
	return hi - lo + 1
}

// DiagStartRowRect returns the row of the first cell (smallest row index)
// on anti-diagonal d of a rows x cols grid. Cells on diagonal d are
// (r, d-r) for r from that row up through DiagLenRect of them.
func DiagStartRowRect(rows, cols, d int) int {
	if d < cols {
		return 0
	}
	return d - cols + 1
}

// DiagCellRect returns the i-th cell (r, c) of anti-diagonal d of a
// rows x cols grid, ordered by increasing row.
func DiagCellRect(rows, cols, d, i int) (r, c int) {
	r = DiagStartRowRect(rows, cols, d) + i
	return r, d - r
}

// CellsUpToDiagRect returns the number of cells of a rows x cols grid on
// diagonals [0, d] (the leading region computed before diagonal d+1
// starts), in closed form: a leading triangle while lengths rise,
// a linear plateau of width min(rows,cols), and the total minus the
// trailing triangle once lengths fall.
func CellsUpToDiagRect(rows, cols, d int) int {
	if d < 0 {
		return 0
	}
	last := NumDiagsRect(rows, cols) - 1
	if d >= last {
		return rows * cols
	}
	m := rows
	if cols < m {
		m = cols
	}
	if d < m {
		// Leading triangle: 1 + 2 + ... + (d+1).
		n := d + 1
		return n * (n + 1) / 2
	}
	if t := last - d; t < m {
		// Total minus the trailing triangle strictly after d.
		return rows*cols - t*(t+1)/2
	}
	// Plateau: full leading triangle plus (d-m+1) diagonals of length m.
	return m*(m+1)/2 + (d-m+1)*m
}

// CellsInDiagRangeRect returns the number of cells of a rows x cols grid
// on diagonals [lo, hi].
func CellsInDiagRangeRect(rows, cols, lo, hi int) int {
	if hi < lo {
		return 0
	}
	return CellsUpToDiagRect(rows, cols, hi) - CellsUpToDiagRect(rows, cols, lo-1)
}

// Clone returns a deep copy of the grid, used to compare executor outputs
// against the serial reference.
func (g *Grid) Clone() *Grid {
	return &Grid{
		rows:   g.rows,
		cols:   g.cols,
		dsize:  g.dsize,
		IntA:   slices.Clone(g.IntA),
		IntB:   slices.Clone(g.IntB),
		Floats: slices.Clone(g.Floats),
	}
}

// Equal reports whether two grids have identical shape and contents.
// Floats compare with ==, so a NaN never equals itself.
func (g *Grid) Equal(o *Grid) bool {
	return g.rows == o.rows && g.cols == o.cols && g.dsize == o.dsize &&
		slices.Equal(g.IntA, o.IntA) && slices.Equal(g.IntB, o.IntB) &&
		slices.Equal(g.Floats, o.Floats)
}
