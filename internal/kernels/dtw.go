package kernels

import (
	"math"

	"repro/internal/grid"
)

// DTW is the dynamic-time-warping distance between two real-valued time
// series: cell (r, c) holds the minimum cumulative cost of warping the
// prefixes x[0..r] and y[0..c] onto each other. The recurrence is the
// min-plus mirror of the alignment kernels,
//
//	D(r,c) = |x[r] - y[c]| + min(D(r-1,c-1), D(r-1,c), D(r,c-1))
//
// with the usual DTW boundary (a cell with no predecessors contributes
// only its own cost). The cumulative distance lives in the cell's single
// float; integer variable A records which predecessor was chosen
// (0 diagonal, 1 up, 2 left, 3 none, ties broken in that order) and B
// the resulting warping-path length, so the path is recoverable and
// fully deterministic.
type DTW struct {
	// SeriesA and SeriesB, when non-nil, are the series to warp;
	// otherwise deterministic synthetic series are derived from indices.
	SeriesA, SeriesB []float64
}

// DTWTSize is the DTW granularity on the synthetic tsize scale: an
// absolute difference, a three-way min and an add per cell.
const DTWTSize = 0.8

// DTWDSize is the per-cell float count (the cumulative distance).
const DTWDSize = 1

// NewDTW returns a DTW kernel over synthetic series.
func NewDTW() *DTW { return &DTW{} }

// Name implements Kernel.
func (d *DTW) Name() string { return "dtw" }

// TSize implements Kernel.
func (d *DTW) TSize() float64 { return DTWTSize }

// DSize implements Kernel.
func (d *DTW) DSize() int { return DTWDSize }

func (d *DTW) sampleA(r int) float64 {
	if d.SeriesA != nil && r < len(d.SeriesA) {
		return d.SeriesA[r]
	}
	t := float64(r)
	return math.Sin(0.37*t) + 0.5*math.Sin(0.11*t)
}

func (d *DTW) sampleB(c int) float64 {
	if d.SeriesB != nil && c < len(d.SeriesB) {
		return d.SeriesB[c]
	}
	t := float64(c)
	return math.Sin(0.29*t) + 0.5*math.Sin(0.07*t+1)
}

// Compute implements Kernel.
func (d *DTW) Compute(g *grid.Grid, r, c int) {
	cost := math.Abs(d.sampleA(r) - d.sampleB(c))
	best, arg := 0.0, int64(3)
	var steps int64
	pick := func(v float64, which int64, n int64) {
		if arg == 3 || v < best {
			best, arg, steps = v, which, n
		}
	}
	if r > 0 && c > 0 {
		pick(g.Float(r-1, c-1, 0), 0, g.B(r-1, c-1))
	}
	if r > 0 {
		pick(g.Float(r-1, c, 0), 1, g.B(r-1, c))
	}
	if c > 0 {
		pick(g.Float(r, c-1, 0), 2, g.B(r, c-1))
	}
	g.SetFloat(r, c, 0, cost+best)
	g.SetA(r, c, arg)
	g.SetB(r, c, steps+1)
}

// Dist returns the DTW distance of the full series after a sweep.
func (d *DTW) Dist(g *grid.Grid) float64 {
	return g.Float(g.Rows()-1, g.Cols()-1, 0)
}
