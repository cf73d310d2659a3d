package core

import (
	"context"
	"fmt"
	"math"
	"sync"

	"repro/internal/engine"
	"repro/internal/hw"
	"repro/internal/ml"
	"repro/internal/plan"
)

// Tuner is a trained autotuner for one system ("trained in the factory",
// Section 3.1.2): a binary SVM decides whether to exploit parallelism, a
// REP tree decides GPU tiling, and M5 model trees predict cpu-tile, band
// and halo, the last two as fractions of their instance's maximum. Halo
// reads only the instance features, not the paper's chained cpu-tile
// and band (Training).
type Tuner struct {
	Sys      hw.System
	Parallel *ml.SVM
	CPUTile  *ml.M5Tree
	GPUTile  *ml.REPTree
	Band     *ml.M5Tree
	Halo     *ml.M5Tree
	Report   TrainReport
}

// TrainReport records model quality: the M5 targets' accuracies are
// 5-fold cross-validated, the SVM's and REP tree's are on their training
// sets. The paper's target is 0.90, reported, not enforced.
type TrainReport struct {
	ParallelAcc float64
	CPUTileAcc  float64
	GPUTileAcc  float64
	BandAcc     float64
	HaloAcc     float64
}

// String reports the accuracies, each labelled by how it was scored.
func (r TrainReport) String() string {
	return fmt.Sprintf("model accuracy (paper's target 0.90, reported, not enforced): "+
		"training-set parallel=%.2f gpu-tile=%.2f; %d-fold CV cpu-tile=%.2f band=%.2f halo=%.2f",
		r.ParallelAcc, r.GPUTileAcc, cvFolds, r.CPUTileAcc, r.BandAcc, r.HaloAcc)
}

// MinAccuracy returns the worst per-target accuracy.
func (r TrainReport) MinAccuracy() float64 {
	m := r.ParallelAcc
	for _, v := range []float64{r.CPUTileAcc, r.GPUTileAcc, r.BandAcc, r.HaloAcc} {
		if v < m {
			m = v
		}
	}
	return m
}

// Train fits a tuner from an exhaustive search result.
func Train(sr *SearchResult, opts TrainOptions) (*Tuner, error) {
	tr, err := BuildTraining(sr, opts)
	if err != nil {
		return nil, err
	}
	t := &Tuner{Sys: sr.Sys}

	// Regression targets: one M5 tree each, scored by cross-validated
	// tolerance accuracy.
	fitM5 := func(d *ml.Dataset, absTol, relTol float64) (*ml.M5Tree, float64, error) {
		if d.Len() < cvFolds {
			// Too small to cross-validate: fit directly.
			return ml.FitM5(d), 1, nil
		}
		acc, err := ml.CrossValidateAccuracy(d, cvFolds, trainSeed, absTol, relTol,
			func(train *ml.Dataset) ml.Model { return ml.FitM5(train) })
		if err != nil {
			return nil, 0, err
		}
		return ml.FitM5(d), acc, nil
	}
	// The models are independent and deterministic, so the M5 fits run
	// concurrently with the SVM and REP fits: a TrainFromSpace tuner's
	// fit uses the cores its search used. Band and halo are fractions of
	// their instance's maximum, so their tolerances are too: a relative
	// window plus an absolute slack of 5% of the maximum mirrors "useful
	// prediction" for offload extents.
	fits := []struct {
		name           string
		d              *ml.Dataset
		absTol, relTol float64
		tree           *ml.M5Tree
		acc            float64
		err            error
	}{
		{name: "cpu-tile", d: tr.CPUTile, absTol: 2.5, relTol: 0.5},
		{name: "band", d: tr.Band, absTol: 0.05, relTol: 0.25},
		{name: "halo", d: tr.Halo, absTol: 0.05, relTol: 0.4},
	}
	var wg sync.WaitGroup
	for i := range fits {
		f := &fits[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.tree, f.acc, f.err = fitM5(f.d, f.absTol, f.relTol)
		}()
	}

	// Parallelism gate: binary SVM.
	svm, svmErr := ml.FitSVM(tr.Parallel)

	// GPU tiling: REP tree on the overloaded target (0 = GPU unused,
	// otherwise the work-group tile). The paper found this "a binary
	// decision that was accurately predicted using REP Tree".
	t.GPUTile = ml.FitREP(tr.GPUTile)
	if tr.GPUTile.Len() > 0 {
		hits := 0
		for i, x := range tr.GPUTile.X {
			if t.GPUTile.Classify(x) == (tr.GPUTile.Y[i] >= 0.5) {
				hits++
			}
		}
		t.Report.GPUTileAcc = float64(hits) / float64(tr.GPUTile.Len())
	}
	wg.Wait()
	if svmErr != nil {
		return nil, fmt.Errorf("core: training parallelism SVM: %w", svmErr)
	}
	t.Parallel = svm
	t.Report.ParallelAcc = svm.Accuracy(tr.Parallel)
	for _, f := range fits {
		if f.err != nil {
			return nil, fmt.Errorf("core: training %s model: %w", f.name, f.err)
		}
	}
	t.CPUTile, t.Report.CPUTileAcc = fits[0].tree, fits[0].acc
	t.Band, t.Report.BandAcc = fits[1].tree, fits[1].acc
	t.Halo, t.Report.HaloAcc = fits[2].tree, fits[2].acc
	return t, nil
}

// Prediction is a deployed tuning decision.
type Prediction struct {
	// Serial is set when the SVM gate predicts parallelism will not pay;
	// the application should run the optimized sequential baseline.
	Serial bool
	Par    plan.Params
}

// String implements fmt.Stringer.
func (p Prediction) String() string {
	if p.Serial {
		return "serial"
	}
	return p.Par.String()
}

// System implements Predictor.
func (t *Tuner) System() hw.System { return t.Sys }

// Predict maps an application's input parameters to the models' tuned
// settings; PredictTimed checks them and is the decision served. The
// regression models may propose values outside the searched grid, which is
// how the paper's tuner achieved super-optimal points on the i3-540; the
// predictions are only clamped to validity, never snapped to the grid.
//
// The feature vector lives in a fixed stack buffer: the first three
// slots are the instance features shared by every model (features), and
// the band model sees them extended in place with the gpu-tile. Predict
// is on the batch/refine/retrain hot path, so it must not allocate.
func (t *Tuner) Predict(inst plan.Instance) Prediction {
	var buf [4]float64
	x := features(buf[:], inst)
	if !t.Parallel.Classify(x) {
		return Prediction{Serial: true, Par: serialPlan(inst)}
	}

	ct := clampTile(int(math.Round(t.CPUTile.Predict(x))), inst.MaxSide())

	// The REP tree's overloaded gpu-tile: below 0.5 the GPU is not
	// employed at all (the paper's "0"); otherwise round to a work-group
	// tile of at least 1.
	gtRaw := t.GPUTile.Predict(x)
	if gtRaw < 0.5 {
		return Prediction{Par: engine.CPUOnlyParams(ct)}
	}
	return Prediction{Par: t.gpuPlan(&buf, inst, ct, clampGPUTile(int(math.Round(gtRaw))))}
}

// gpuPlan returns the plan the band and halo models imply for inst at
// cpu-tile ct and gpu-tile gt; buf[:3] holds inst's features. Band and
// halo are predicted as fractions of their instance's maximum
// (BuildTraining) and scaled back by countOf.
func (t *Tuner) gpuPlan(buf *[4]float64, inst plan.Instance, ct, gt int) plan.Params {
	buf[3] = float64(gt)
	band := countOf(t.Band.Predict(buf[:4]), inst.MaxUsefulBand())
	par := plan.Params{CPUTile: ct, Band: band, GPUTile: gt, Halo: -1}
	if band >= 0 && t.Sys.MaxGPUs() >= 2 {
		par.Halo = countOf(t.Halo.Predict(buf[:3]), plan.MaxHaloFor(inst, band))
	}
	return par.Normalize()
}

// gpuCandidate returns the GPU move of a CPU-only plan at cpu-tile ct
// (neighbourhood): when the REP tree reads below 0.5 on a system with a
// GPU, the plan the band and halo models imply at gpu-tile 1. ok is
// false when there is none: the REP tree chose the GPU (the models' plan
// is CPU-only through its band), or the system or the tuner has no GPU
// model.
func (t *Tuner) gpuCandidate(inst plan.Instance, ct int) (par plan.Params, ok bool) {
	if t.Sys.MaxGPUs() < 1 || t.Band == nil {
		return plan.Params{}, false
	}
	var buf [4]float64
	if t.GPUTile.Predict(features(buf[:], inst)) >= 0.5 {
		return plan.Params{}, false
	}
	return t.gpuPlan(&buf, inst, ct, 1), true
}

func clampTile(ct, dim int) int {
	if ct < 1 {
		ct = 1
	}
	if ct > dim {
		ct = dim
	}
	if ct > 64 {
		ct = 64
	}
	return ct
}

// serialPlan is the plan of a serial decision: CPU-only at the
// sequential baseline's tile.
func serialPlan(inst plan.Instance) plan.Params {
	return engine.CPUOnlyParams(clampTile(engine.SerialTile, inst.MaxSide()))
}

// PredictTimed is the served decision: the prediction for inst with its
// modeled runtime and the serial baseline, both in nanoseconds. It is
// the single-call deployment hook of the plan cache, the tuning service,
// the CLI and Evaluate, so every consumer scores the plan it serves.
//
// A parallel decision is checked against its neighbourhood's first ring,
// with the estimator standing in for the machine (the paper's
// future-work online tuning with a small probe budget): the hill climb
// refine also runs (incumbent.climb), over ring moves only, from the
// models' plan and then from each new incumbent until a pass takes no
// move or servedBudget probes are spent. So the served plan is at least
// as fast as the models' plan, a tie keeps the incumbent, and the served
// runtime is bit-identical to an unbounded Estimate of the served
// params. A serial decision (the SVM gate) is served unchecked.
func (t *Tuner) PredictTimed(inst plan.Instance) (Prediction, float64, float64, error) {
	serial := engine.SerialNs(t.Sys, inst)
	pred := t.Predict(inst)
	if pred.Serial {
		return pred, serial, serial, nil
	}
	res, err := engine.Estimate(t.Sys, inst, pred.Par, engine.Options{})
	if err != nil {
		return Prediction{}, 0, 0, err
	}
	inc := incumbent{par: pred.Par, ns: res.RTimeNs}
	if _, _, err := inc.climb(context.Background(), t.Sys, inst, servedBudget, t.ring(inst)); err != nil {
		return Prediction{}, 0, 0, err
	}
	return Prediction{Par: inc.par}, inc.ns, serial, nil
}

// ring returns the moves of a served climb on inst: a plan's
// neighbourhood's first ring.
func (t *Tuner) ring(inst plan.Instance) func(plan.Params) ([maxMoves]plan.Params, int) {
	return func(p plan.Params) (moves [maxMoves]plan.Params, n int) {
		_, n = t.neighbourhood(&moves, inst, p)
		return moves, n
	}
}

// servedBudget caps the ring probes of one served decision, beyond the
// models' plan. It is loose: the served climbs of wavebench's tune-cold
// keys take at most 30 probes.
const servedBudget = 64
