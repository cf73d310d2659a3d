// Package cpuexec executes wavefront computations on the real host CPU.
// It provides the serial reference sweep and the tiled parallel executor
// described in Section 2 of the paper: the grid is partitioned into square
// cpu-tile x cpu-tile tiles, and the tiles run on a goroutine worker pool
// as a dataflow graph. A tile is released the moment its north and west
// neighbours finish, so no barrier separates tile-diagonals and no worker
// idles on the wavefront's ramp while a ready tile exists. Grids may be
// rectangular (rows != cols); tiles at the edges are clipped.
//
// This is the "threads to control CPU phases" half of the paper's library;
// the simulated platforms model the same tile decomposition via package
// plan, so native runs and modeled runs share one decomposition.
package cpuexec

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"

	"repro/internal/grid"
	"repro/internal/kernels"
)

// RunSerial computes every cell of g with k in row-major order, the
// optimized sequential baseline of the paper's comparisons.
func RunSerial(k kernels.Kernel, g *grid.Grid) {
	rows, cols := g.Rows(), g.Cols()
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			k.Compute(g, r, c)
		}
	}
}

// Executor runs tiled parallel wavefront sweeps on a persistent
// fixed-size worker pool. An Executor is safe for sequential reuse across
// many runs; Close releases its workers, after which Run returns
// ErrClosed.
type Executor struct {
	workers int
	pl      *pool
}

// New returns an executor with the given worker count; workers <= 0
// selects GOMAXPROCS.
func New(workers int) *Executor {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Executor{workers: workers, pl: newPool(workers)}
}

// Close stops the executor's workers and waits for them to exit. It is
// idempotent; subsequent Run calls return ErrClosed.
func (e *Executor) Close() { e.pl.close() }

// Run computes the whole grid with square tiles of side ct. A kernel
// whose stencil points only up and left — every catalog kernel — runs
// through the tile dataflow scheduler. A kernel declaring any other
// offset is scheduled per cell by frontier propagation instead, since a
// row-major tile would read its up-right dependencies before they are
// computed; a cyclic stencil then fails with ErrFrontierStuck.
func (e *Executor) Run(k kernels.Kernel, g *grid.Grid, ct int) error {
	rows, cols := g.Rows(), g.Cols()
	if maxSide := max(rows, cols); ct < 1 || ct > maxSide {
		return fmt.Errorf("cpuexec: cpu-tile %d outside [1,%d]", ct, maxSide)
	}
	if st := kernels.StencilOf(k); !monotone(st) {
		return e.RunFrontier(context.Background(), k, g, grid.NewIrregularFrontier(rows, cols, st, nil))
	}
	return e.runTiles(context.Background(), k, g, ct)
}

// runTiles is the tile scheduler behind Run and the tiled branch of
// RunIrregular. Tile (I,J) waits on its north and west neighbours and is
// released the moment both finish; by induction every tile up and to the
// left of it is then done, so every monotone stencil is honoured
// (knapsack's long-range column read included). Released tiles go to one
// shared queue sized to the tile count, and a worker keeps one released
// successor for itself, for locality. Within a tile, every cell is
// computed row-major. ctx is checked once per tile; after cancellation
// the remaining tiles drain uncomputed and the run returns ctx.Err().
func (e *Executor) runTiles(ctx context.Context, k kernels.Kernel, g *grid.Grid, ct int) error {
	if e.pl.isClosed() {
		return ErrClosed
	}
	nTc := (g.Cols() + ct - 1) / ct
	nT := (g.Rows() + ct - 1) / ct * nTc
	// wait[t] counts the unfinished north and west neighbours of the
	// tile with row-major index t.
	wait := make([]atomic.Int32, nT)
	for t := range wait {
		wait[t].Store(int32(min(t/nTc, 1) + min(t%nTc, 1)))
	}
	ready := make(chan int32, nT) // every tile is queued at most once
	ready <- 0
	var cancelled atomic.Bool
	// finish retires tile t and returns a released successor for the
	// caller to run next (-1 if none), queueing a second one. The
	// bottom-right tile depends on every other, so it finishes last and
	// closes the queue.
	finish := func(t int) int {
		if t == nT-1 {
			close(ready)
			return -1
		}
		next := -1
		if s := t + nTc; s < nT && wait[s].Add(-1) == 0 {
			next = s
		}
		if s := t + 1; s%nTc != 0 && wait[s].Add(-1) == 0 {
			if next >= 0 {
				ready <- int32(next)
			}
			next = s
		}
		return next
	}
	err := e.runItems(e.workers, func(int) {
		for queued := range ready {
			for t := int(queued); t >= 0; t = finish(t) {
				if cancelled.Load() {
					continue
				}
				if ctxErr(ctx) != nil {
					cancelled.Store(true)
					continue
				}
				computeTile(k, g, t/nTc*ct, t%nTc*ct, ct)
			}
		}
	})
	if err == nil && cancelled.Load() {
		err = ctx.Err()
	}
	return err
}

// runItems is the executor's work-set primitive: it runs fn(0..n-1)
// across the pool and blocks until all items complete. A single item, or
// a single-worker executor, runs inline on the caller.
func (e *Executor) runItems(n int, fn func(i int)) error {
	if n <= 0 {
		return nil
	}
	if n == 1 || e.workers == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return nil
	}
	return e.pl.run(n, fn)
}

// computeTile evaluates every cell of the tile with top-left corner
// (r0, c0) in row-major order.
func computeTile(k kernels.Kernel, g *grid.Grid, r0, c0, ct int) {
	rMax := min(r0+ct, g.Rows())
	cMax := min(c0+ct, g.Cols())
	for r := r0; r < rMax; r++ {
		for c := c0; c < cMax; c++ {
			k.Compute(g, r, c)
		}
	}
}
