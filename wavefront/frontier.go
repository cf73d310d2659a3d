package wavefront

// The frontier surface: the generalization of the execution substrate
// from dense anti-diagonal sweeps to arbitrary ready-set propagation.
// Dense wavefronts remain the closed-form special case (DiagFrontier);
// masked and irregular workloads — Nussinov's triangle, morphological
// reconstruction over a mask — run through RunIrregular, which tiles
// them like RunParallel or schedules single cells by IrregularFrontier's
// per-cell wavefront levels. Kernels opt in by declaring a stencil and
// a live region (KernelMask); undeclared kernels default to the dense
// W/N/NW cone over the full rectangle.

import (
	"context"
	"time"

	"repro/internal/cpuexec"
	"repro/internal/grid"
	"repro/internal/kernels"
)

// Frontier iterates over the ready cell sets of a wavefront
// computation; see grid.Frontier for the contract.
type Frontier = grid.Frontier

// Cell identifies one grid cell by row and column.
type Cell = grid.Cell

// DiagFrontier is the dense frontier over closed-form anti-diagonals.
type DiagFrontier = grid.DiagFrontier

// IrregularFrontier schedules an arbitrary live region by per-cell
// wavefront level: one row-major pass for a causal stencil, in-degree
// propagation otherwise, with per-level buckets built on the first Next.
type IrregularFrontier = grid.IrregularFrontier

// KernelMask is implemented by kernels whose live region is a strict
// subset of the rectangle; dead cells are skipped by the cell-level
// frontier executors, visited by the tiled ones, and must be no-ops (or
// write only zero initial values) in Compute.
type KernelMask = kernels.Masked

// NewDiagFrontier returns the dense frontier covering a rows x cols
// grid in anti-diagonal order.
func NewDiagFrontier(rows, cols int) *DiagFrontier {
	return grid.NewDiagFrontier(rows, cols)
}

// KernelFrontier builds the irregular frontier for the stencil and live
// region kernel k declares — the frontier RunIrregular schedules.
func KernelFrontier(k Kernel, rows, cols int) *IrregularFrontier {
	return grid.NewIrregularFrontier(rows, cols, kernels.StencilOf(k), kernels.LiveOf(k, rows, cols))
}

// CountFrontier returns the true step and cell counts of a fresh f —
// the step total progress reporting must use for irregular regions,
// where NumDiags overstates the denominator. An IrregularFrontier knows
// its counts and is not consumed; any other frontier is drained.
func CountFrontier(f Frontier) (steps, cells int) { return grid.CountFrontier(f) }

// RunFrontier computes the cells of f with k on the host CPU (workers
// goroutines; <= 0 selects GOMAXPROCS), one ready set at a time with a
// barrier between steps, and returns the wall-clock time. ctx is
// checked between steps for cooperative cancellation. It fails when f
// dead-ends before covering its region.
func RunFrontier(ctx context.Context, k Kernel, g *Grid, f Frontier, workers int) (time.Duration, error) {
	start := time.Now()
	ex := cpuexec.New(workers)
	defer ex.Close()
	err := ex.RunFrontier(ctx, k, g, f)
	return time.Since(start), err
}

// RunIrregular computes the live region kernel k declares (dense over
// the full rectangle when it declares none) on the host CPU, and returns
// the wall-clock time. cpuTile > 1 runs tiles of that side through the
// same barrier-free tile scheduler as RunParallel, computing every cell
// (dead cells are no-ops); cpuTile <= 1, or a stencil that points up and
// right, schedules individual live cells by frontier propagation.
func RunIrregular(ctx context.Context, k Kernel, g *Grid, cpuTile, workers int) (time.Duration, error) {
	start := time.Now()
	ex := cpuexec.New(workers)
	defer ex.Close()
	err := ex.RunIrregular(ctx, k, g, cpuTile)
	return time.Since(start), err
}
