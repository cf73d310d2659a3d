// Package wavefront is the public API of the reproduction of "Autotuning
// Wavefront Applications for Multicore Multi-GPU Hybrid Architectures"
// (Mohanty and Cole, PMAM '14, co-located with PPoPP 2014,
// DOI 10.1145/2560683.2560689).
//
// It exposes the paper's workflow and the handles its daemon needs:
//
//   - the wavefront pattern library: define a Kernel and run it natively
//     on the host CPU, serially or tile-parallel (RunSerial, RunParallel),
//     or over an irregular live region (RunIrregular, RunFrontier);
//   - the modeled heterogeneous platforms of the paper's Table 4 and the
//     three-phase hybrid execution strategy on them (Estimate, Simulate);
//   - the exhaustive tuning-space exploration of Table 3 (Exhaustive);
//   - the machine-learned autotuner: train on the synthetic application,
//     deploy on unseen applications (Train, Tuner.Predict);
//   - the application registry: the named workloads the daemon and CLIs
//     resolve, extensible with custom kernels (RegisterApp, NewAppKernel);
//   - the HTTP tuning daemon behind cmd/waved and its batch client
//     (NewTuningServer, TuneBatch). Its plan cache, job queue, retrainer
//     and metrics are reached over HTTP, not through this package.
//
// Grids may be square (the paper's dim x dim experiments; NewGrid,
// InstanceOf) or rectangular (rows x cols; NewRectGrid, RectInstanceOf,
// SimulateRect) — the natural shape for aligning two sequences of unequal
// length, where the anti-diagonal parallelism profile is trapezoidal
// rather than triangular. Every execution path (serial, tiled-parallel,
// estimator, simulator, exhaustive search) accepts both shapes.
//
// The types are aliases of the internal implementation packages. The
// package exports only what cmd/ and examples/ use (and the types those
// names expose); facade_test.go enforces that.
package wavefront

import (
	"time"

	"repro/internal/core"
	"repro/internal/cpuexec"
	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/hw"
	"repro/internal/kernels"
	"repro/internal/plan"
)

// Grid is a rectangular wavefront array: two int32 variables plus DSize
// float64 values per cell, so a cell is exactly its ElemBytes(): 8 bytes
// plus 8 per float. Grid.SetA and Grid.SetB keep the low 32 bits of their
// int64 argument; a kernel registered with RegisterApp must keep A and B
// in int32 range.
type Grid = grid.Grid

// Kernel is a wavefront point computation; see NewSynthetic, NewNash and
// NewSeqCompare, NewAppKernel for any catalog application by name, or
// implement the interface for your own — and register it with
// RegisterApp to serve it by name.
type Kernel = kernels.Kernel

// Instance describes a problem instance by the paper's input parameters
// (Table 1): Dim (or Rows/Cols for rectangular shapes), TSize, DSize.
type Instance = plan.Instance

// Params is a setting of the paper's tunable parameters (Table 2):
// CPUTile, Band, GPUTile, Halo (gpu-count is encoded in Band/Halo).
type Params = plan.Params

// System is a modeled platform (Table 4).
type System = hw.System

// Result is the outcome of a modeled run, including the phase breakdown.
type Result = engine.Result

// Space is an exhaustive search space (Table 3).
type Space = core.Space

// SearchResult holds an exhaustive exploration.
type SearchResult = core.SearchResult

// Tuner is a trained autotuner for one system: the paper's SVM gate,
// REP tree and M5 model trees.
type Tuner = core.Tuner

// Predictor is a deployed tuning model. Tuner implements it, and every
// serving layer (tuner sources, refine jobs, champion/challenger
// retraining) programs against it.
type Predictor = core.Predictor

// ModelKindTree names the Tuner's model, the only kind TrainPredictor
// accepts besides "".
const ModelKindTree = core.KindTree

// Prediction is a deployed tuning decision.
type Prediction = core.Prediction

// TrainOptions configure tuner training.
type TrainOptions = core.TrainOptions

// NewGrid allocates a square dim x dim grid with dsize floats per cell.
func NewGrid(dim, dsize int) *Grid { return grid.NewRect(dim, dim, dsize) }

// NewRectGrid allocates a rectangular rows x cols grid with dsize floats
// per cell.
func NewRectGrid(rows, cols, dsize int) *Grid { return grid.NewRect(rows, cols, dsize) }

// NewSynthetic returns the paper's synthetic training kernel with the
// given granularity (iterations) and data size (floats per cell).
func NewSynthetic(iters, dsize int) Kernel { return kernels.NewSynthetic(iters, dsize) }

// NewNash returns the Nash-equilibrium kernel (coarse-grained; one round
// maps to tsize 750 at dsize 4).
func NewNash(rounds int) Kernel { return kernels.NewNash(rounds) }

// NewSeqCompare returns the biological sequence comparison
// (Smith-Waterman) kernel (fine-grained; tsize 0.5, dsize 0).
func NewSeqCompare() Kernel { return kernels.NewSeqCompare() }

// NewSeqCompareWith aligns two explicit sequences.
func NewSeqCompareWith(a, b []byte) Kernel { return kernels.NewSeqCompareWith(a, b) }

// Systems returns the paper's three modeled platforms.
func Systems() []System { return hw.Systems() }

// SystemByName looks up one of the Table 4 systems ("i3-540", "i7-2600K",
// "i7-3820").
func SystemByName(name string) (System, bool) { return hw.ByName(name) }

// InstanceOf derives the paper-scale instance parameters for running
// kernel k at the given (square) dimension.
func InstanceOf(dim int, k Kernel) Instance {
	return Instance{Dim: dim, TSize: k.TSize(), DSize: k.DSize()}
}

// RectInstanceOf derives the instance parameters for running kernel k on
// a rectangular rows x cols grid.
func RectInstanceOf(rows, cols int, k Kernel) Instance {
	return Instance{Rows: rows, Cols: cols, TSize: k.TSize(), DSize: k.DSize()}
}

// RunSerial computes the grid with k on one host core and returns the
// wall-clock time.
func RunSerial(k Kernel, g *Grid) time.Duration {
	start := time.Now()
	cpuexec.RunSerial(k, g)
	return time.Since(start)
}

// RunParallel computes the grid with k on the host CPU using the tiled
// wavefront executor (cpuTile-sided tiles, workers goroutines; workers
// <= 0 selects GOMAXPROCS) and returns the wall-clock time. A tile
// starts as soon as its north and west neighbours finish; no barrier
// separates tile-diagonals.
func RunParallel(k Kernel, g *Grid, cpuTile, workers int) (time.Duration, error) {
	start := time.Now()
	ex := cpuexec.New(workers)
	defer ex.Close()
	err := ex.Run(k, g, cpuTile)
	return time.Since(start), err
}

// CPUOnly returns the all-CPU configuration with the given tile.
func CPUOnly(cpuTile int) Params { return engine.CPUOnlyParams(cpuTile) }

// GPUOnlyFor returns the full single-GPU offload configuration for an
// instance of any shape.
func GPUOnlyFor(inst Instance) Params { return engine.GPUOnlyParamsFor(inst) }

// Estimate models a run of inst with parameters par on sys and returns
// virtual time and breakdown without computing data.
func Estimate(sys System, inst Instance, par Params) (Result, error) {
	return engine.Estimate(sys, inst, par, engine.Options{})
}

// Simulate executes kernel k functionally on the modeled system: the
// returned grid holds real results (bit-identical to RunSerial) and the
// result carries the virtual time of the three-phase hybrid execution.
func Simulate(sys System, dim int, k Kernel, par Params) (Result, *Grid, error) {
	return engine.Simulate(sys, Instance{Dim: dim}, k, par, engine.Options{})
}

// SimulateRect is Simulate over a rectangular rows x cols grid.
func SimulateRect(sys System, rows, cols int, k Kernel, par Params) (Result, *Grid, error) {
	return engine.Simulate(sys, Instance{Rows: rows, Cols: cols}, k, par, engine.Options{})
}

// SerialSeconds returns the modeled optimized sequential baseline in
// seconds.
func SerialSeconds(sys System, inst Instance) float64 {
	return engine.SerialNs(sys, inst) / 1e9
}

// QuickSpace returns a reduced space for experimentation.
func QuickSpace() Space { return core.QuickSpace() }

// Exhaustive explores the space on sys with the paper's 90-second
// threshold.
func Exhaustive(sys System, space Space) (*SearchResult, error) {
	return core.Exhaustive(sys, space, core.SearchOptions{})
}

// Train fits the paper's model pipeline (SVM gate, REP tree, M5 model
// trees) on an exhaustive search result.
func Train(sr *SearchResult, opts TrainOptions) (*Tuner, error) {
	return core.Train(sr, opts)
}

// TrainPredictor fits a predictor; kind must be "" or ModelKindTree.
func TrainPredictor(kind string, sr *SearchResult, opts TrainOptions) (Predictor, error) {
	return core.TrainPredictor(kind, sr, opts)
}

// SavePredictor writes a predictor to path as JSON.
func SavePredictor(path string, p Predictor) error { return core.SavePredictor(path, p) }

// DefaultTrainOptions returns the standard training configuration.
func DefaultTrainOptions() TrainOptions { return core.DefaultTrainOptions() }

// SimulateTraced is Simulate with command-timeline collection enabled;
// inspect the timeline via Result.Trace.Render.
func SimulateTraced(sys System, dim int, k Kernel, par Params) (Result, *Grid, error) {
	return engine.Simulate(sys, Instance{Dim: dim}, k, par, engine.Options{CollectTrace: true})
}
