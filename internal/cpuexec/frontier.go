package cpuexec

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/grid"
	"repro/internal/kernels"
)

// This file is the frontier half of the executor: the entry points here
// drain any grid.Frontier — one ready set per step, a barrier between
// steps — so irregular live regions (Nussinov's triangle, morphological
// reconstruction on a mask) under any causal stencil run through the
// same worker pool as the tiled sweeps. RunIrregular sends kernels with
// a monotone stencil to the tile scheduler of cpuexec.go instead, and
// RunSerialFrontier short-circuits a dense *grid.DiagFrontier into the
// closed-form diagonal sweep.

// ErrFrontierStuck is returned when a frontier exhausts before covering
// the region it promised: some live cells never became ready, which
// means the dependency stencil induced a cycle (or a self-dependency)
// over the live region. Executors detect this by comparing delivered
// cells against Frontier.Cells and fail instead of hanging or silently
// under-computing.
var ErrFrontierStuck = errors.New("cpuexec: frontier dead-ended before covering its region")

// frontierStuck wraps ErrFrontierStuck with the coverage shortfall.
func frontierStuck(delivered, want int) error {
	return fmt.Errorf("%w: delivered %d of %d cells", ErrFrontierStuck, delivered, want)
}

// ctxErr returns the context's error, if any; a nil context never
// cancels.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}

// RunSerialFrontier drains f on a single goroutine, computing each ready
// set in delivery order. A dense *grid.DiagFrontier short-circuits into
// the closed-form diagonal sweep over its (clamped) range, the reference
// for phase-restricted execution. It returns ErrFrontierStuck when f
// dead-ends before covering its region.
func RunSerialFrontier(k kernels.Kernel, g *grid.Grid, f grid.Frontier) error {
	if df, ok := f.(*grid.DiagFrontier); ok {
		rows, cols := g.Rows(), g.Cols()
		lo, hi := df.DiagRange()
		for d := lo; d <= hi; d++ {
			for i := 0; i < grid.DiagLenRect(rows, cols, d); i++ {
				r, c := grid.DiagCellRect(rows, cols, d, i)
				k.Compute(g, r, c)
			}
		}
		return nil
	}
	delivered := 0
	for {
		step, ok := f.Next()
		if !ok {
			break
		}
		for _, c := range step {
			k.Compute(g, c.R, c.C)
		}
		delivered += len(step)
	}
	if delivered != f.Cells() {
		return frontierStuck(delivered, f.Cells())
	}
	return nil
}

// frontierChunk is the minimum number of cells a pool work item receives
// when a frontier step is split across workers; steps smaller than one
// chunk run inline, since the barrier costs more than the parallelism
// recovers.
const frontierChunk = 16

// RunFrontier drains f on the executor's worker pool: each ready set is
// split into contiguous chunks computed concurrently, with a barrier
// before the next step. ctx is checked between steps, so cancellation
// takes effect at the next barrier; a nil ctx never cancels. Returns
// ErrFrontierStuck when f dead-ends before covering its region, and
// ErrClosed after Close.
func (e *Executor) RunFrontier(ctx context.Context, k kernels.Kernel, g *grid.Grid, f grid.Frontier) error {
	if e.pl.isClosed() {
		return ErrClosed
	}
	delivered := 0
	for {
		if err := ctxErr(ctx); err != nil {
			return err
		}
		step, ok := f.Next()
		if !ok {
			break
		}
		delivered += len(step)
		if len(step) <= frontierChunk || e.workers == 1 {
			for _, c := range step {
				k.Compute(g, c.R, c.C)
			}
			continue
		}
		chunk := (len(step) + e.workers - 1) / e.workers
		if chunk < frontierChunk {
			chunk = frontierChunk
		}
		n := (len(step) + chunk - 1) / chunk
		err := e.runItems(n, func(i int) {
			lo := i * chunk
			hi := lo + chunk
			if hi > len(step) {
				hi = len(step)
			}
			for _, c := range step[lo:hi] {
				k.Compute(g, c.R, c.C)
			}
		})
		if err != nil {
			return err
		}
	}
	if delivered != f.Cells() {
		return frontierStuck(delivered, f.Cells())
	}
	return nil
}

// monotone reports whether every offset of st points weakly up and left
// (DR <= 0 and DC <= 0, excluding the empty and self cases). These are
// the stencils the tile scheduler honours; causal-but-not-monotone
// stencils (for example an up-right offset) are scheduled per cell
// instead.
func monotone(st grid.Stencil) bool {
	for _, o := range st {
		if o.DR > 0 || o.DC > 0 || (o.DR == 0 && o.DC == 0) {
			return false
		}
	}
	return len(st) > 0
}

// RunIrregular computes the live region of k on g, using the stencil and
// mask the kernel declares (dense stencil and full rectangle when it
// declares none). For ct > 1 with a monotone stencil, tiles of side ct
// run through the same barrier-free tile scheduler as Run, computing
// every cell as Run and RunSerial do. Otherwise (ct <= 1, or a stencil
// with rightward offsets) the live cells are scheduled individually by
// frontier propagation, and dead cells are never visited.
//
// Masked kernels are no-ops (or write only the grid's zero initial
// values) in their dead region, so either way the result matches a
// dense sweep of the full rectangle bit for bit.
func (e *Executor) RunIrregular(ctx context.Context, k kernels.Kernel, g *grid.Grid, ct int) error {
	rows, cols := g.Rows(), g.Cols()
	st := kernels.StencilOf(k)
	if ct <= 1 || !monotone(st) {
		return e.RunFrontier(ctx, k, g, grid.NewIrregularFrontier(rows, cols, st, kernels.LiveOf(k, rows, cols)))
	}
	return e.runTiles(ctx, k, g, ct)
}
