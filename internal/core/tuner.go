package core

import (
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
// and halo, the last two as fractions of their instance's maximum.
type Tuner struct {
	Sys      hw.System
	Parallel *ml.SVM
	CPUTile  *ml.M5Tree
	GPUTile  *ml.REPTree
	Band     *ml.M5Tree
	Halo     *ml.M5Tree
	Report   TrainReport
}

// TrainReport records cross-validated model quality: the paper requires
// at least 90% before deployment.
type TrainReport struct {
	ParallelAcc float64
	CPUTileAcc  float64
	GPUTileAcc  float64
	BandAcc     float64
	HaloAcc     float64
	// Configs counts the model configurations explored to reach the
	// accuracy target ("we explored different configurations of the
	// learning model").
	Configs int
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

// m5Configs are the model configurations tried, in order, until the
// cross-validated accuracy target is met.
func m5Configs() []ml.M5Options {
	base := ml.DefaultM5Options()
	noSmooth := base
	noSmooth.Smooth = false
	bigLeaf := base
	bigLeaf.MinLeaf = 8
	smallLeaf := noSmooth
	smallLeaf.MinLeaf = 2
	return []ml.M5Options{base, noSmooth, bigLeaf, smallLeaf}
}

// Train fits a tuner from an exhaustive search result.
func Train(sr *SearchResult, opts TrainOptions) (*Tuner, error) {
	opts = opts.withDefaults()
	tr, err := BuildTraining(sr, opts)
	if err != nil {
		return nil, err
	}
	t := &Tuner{Sys: sr.Sys}

	// Regression targets: explore M5 configurations until the CV accuracy
	// gate passes, keeping the best.
	fitM5 := func(d *ml.Dataset, absTol, relTol float64) (*ml.M5Tree, float64, int, error) {
		if d.Len() < opts.CVFolds {
			// Too small to cross-validate: fit directly.
			return ml.FitM5(d, ml.DefaultM5Options()), 1, 0, nil
		}
		return ml.SelectM5(d, opts.CVFolds, opts.Seed, absTol, relTol, opts.AccuracyTarget, m5Configs())
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
		configs        int
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
			f.tree, f.acc, f.configs, f.err = fitM5(f.d, f.absTol, f.relTol)
		}()
	}

	// Parallelism gate: binary SVM.
	svm, svmErr := ml.FitSVM(tr.Parallel, ml.SVMOptions{Seed: opts.Seed})

	// GPU tiling: REP tree on the overloaded target (0 = GPU unused,
	// otherwise the work-group tile). The paper found this "a binary
	// decision that was accurately predicted using REP Tree".
	t.GPUTile = ml.FitREP(tr.GPUTile, ml.REPOptions{Seed: opts.Seed})
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
		t.Report.Configs += f.configs
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

// Quality implements Predictor.
func (t *Tuner) Quality() TrainReport { return t.Report }

// Predict maps an application's input parameters to tuned settings. The
// regression models may propose values outside the searched grid, which is
// how the paper's tuner achieved super-optimal points on the i3-540; the
// predictions are only clamped to validity, never snapped to the grid.
//
// The feature vector lives in a fixed stack buffer: the first three
// slots are the instance features shared by every model (features), and
// the band and halo models see them extended in place with the upstream
// decisions. Predict is on the batch/refine/retrain hot path, so it
// must not allocate.
func (t *Tuner) Predict(inst plan.Instance) Prediction {
	var buf [5]float64
	x := features(buf[:], inst)
	if !t.Parallel.Classify(x) {
		return Prediction{Serial: true, Par: engine.CPUOnlyParams(clampTile(engine.SerialTile, inst.MaxSide()))}
	}

	ct := clampTile(int(math.Round(t.CPUTile.Predict(x))), inst.MaxSide())

	// The REP tree's overloaded gpu-tile: below 0.5 the GPU is not
	// employed at all (the paper's "0"); otherwise round to a work-group
	// tile of at least 1.
	gtRaw := t.GPUTile.Predict(x)
	if gtRaw < 0.5 {
		return Prediction{Par: engine.CPUOnlyParams(ct)}
	}
	gt := clampGPUTile(int(math.Round(gtRaw)))

	// Band and halo are predicted as fractions of their instance's
	// maximum (BuildTraining) and scaled back by countOf; the halo model
	// sees the band as the fraction the chosen count realizes.
	buf[3] = float64(gt)
	maxBand := inst.MaxUsefulBand()
	band := countOf(t.Band.Predict(buf[:4]), maxBand)
	par := plan.Params{CPUTile: ct, Band: band, GPUTile: gt, Halo: -1}
	if band >= 0 && t.Sys.MaxGPUs() >= 2 {
		buf[3], buf[4] = float64(ct), fracOf(band, maxBand)
		par.Halo = countOf(t.Halo.Predict(buf[:5]), plan.MaxHaloFor(inst, band))
	}
	return Prediction{Par: par.Normalize()}
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

// PredictTimed predicts tuned settings for inst and returns them together
// with the modeled runtime of the decision and the serial baseline, both
// in nanoseconds. It is the single-call deployment hook used by the plan
// cache and the tuning service: one invocation per cache miss yields
// everything a caller needs to act on (and report) the decision.
func (t *Tuner) PredictTimed(inst plan.Instance) (Prediction, float64, float64, error) {
	pred := t.Predict(inst)
	rtime, err := t.RTimeFor(inst, pred)
	if err != nil {
		return Prediction{}, 0, 0, err
	}
	return pred, rtime, engine.SerialNs(t.Sys, inst), nil
}

// RTimeFor returns the modeled runtime of a prediction on the tuner's
// system: the serial baseline when the gate said serial, otherwise the
// estimated hybrid runtime.
func (t *Tuner) RTimeFor(inst plan.Instance, pred Prediction) (float64, error) {
	if pred.Serial {
		return engine.SerialNs(t.Sys, inst), nil
	}
	res, err := engine.Estimate(t.Sys, inst, pred.Par, engine.Options{})
	if err != nil {
		return 0, err
	}
	return res.RTimeNs, nil
}
