package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/engine"
	"repro/internal/hw"
	"repro/internal/kernels"
	"repro/internal/plan"
)

// perConfigEval is the reference evaluator: one engine.Estimate per
// configuration of the space, keeping the first fastest uncensored one,
// against the served decision built the long way (servedLongWay).
func perConfigEval(t *Tuner, space Space, inst plan.Instance) (EvalPoint, error) {
	sys := t.System()
	e := EvalPoint{Inst: inst, SerialNs: engine.SerialNs(sys, inst)}
	found := false
	for _, par := range space.Configs(inst, sys) {
		res, err := engine.Estimate(sys, inst, par, engine.Options{ThresholdNs: engine.DefaultThresholdNs})
		if err != nil {
			return e, err
		}
		if !res.Censored && (!found || res.RTimeNs < e.BestNs) {
			e.BestNs, e.BestPar, found = res.RTimeNs, par, true
		}
	}
	e.AllCensored = !found
	var err error
	e.Pred, e.AutoNs, err = servedLongWay(t, inst)
	return e, err
}

// servedCandidates lists the plans the served decision of t's parallel
// prediction pred chooses from, in order: the models' plan, the CPU-only
// plan at its cpu-tile when the plan uses a GPU, the CPU-only plan at the
// clamped doubled cpu-tile, and, when the plan uses a GPU, the models'
// plan at band x0.8 and x1.25 that differ from it and pass plan.Check.
// When the REP tree reads below 0.5 on a system with a GPU and t has a
// band model, the last candidate is the plan the band and halo models
// imply at gpu-tile 1, if it uses a GPU and passes plan.Check.
func servedCandidates(t *Tuner, pred Prediction, inst plan.Instance) []Prediction {
	cands := []Prediction{pred}
	ct := pred.Par.CPUTile
	if pred.Par.Band >= 0 {
		cands = append(cands, Prediction{Par: engine.CPUOnlyParams(ct)})
	}
	if ct2 := clampTile(2*ct, inst.MaxSide()); ct2 != ct {
		cands = append(cands, Prediction{Par: engine.CPUOnlyParams(ct2)})
	}
	if pred.Par.Band >= 0 {
		for _, f := range []float64{0.8, 1.25} {
			par := pred.Par
			par.Band = min(int(float64(par.Band)*f), inst.NumDiags())
			if par.Band == pred.Par.Band {
				par.Band = min(par.Band+1, inst.NumDiags())
			}
			par.Halo = min(par.Halo, plan.MaxHaloFor(inst, par.Band))
			if par = par.Normalize(); par != pred.Par && plan.Check(inst, par) == nil {
				cands = append(cands, Prediction{Par: par})
			}
		}
	}
	x := []float64{math.Log(float64(inst.MaxSide())), math.Log(inst.TSize), float64(inst.DSize)}
	if pred.Par.Band < 0 && t.Sys.MaxGPUs() >= 1 && t.Band != nil && t.GPUTile.Predict(x) < 0.5 {
		par := plan.Params{CPUTile: ct, GPUTile: 1, Halo: -1}
		par.Band = countOf(t.Band.Predict(append(x, 1)), inst.MaxUsefulBand())
		if par.Band >= 0 && t.Sys.MaxGPUs() >= 2 {
			par.Halo = countOf(t.Halo.Predict(x), plan.MaxHaloFor(inst, par.Band))
		}
		if par = par.Normalize(); par.Band >= 0 && plan.Check(inst, par) == nil {
			cands = append(cands, Prediction{Par: par})
		}
	}
	return cands
}

// servedLongWay builds the served decision without threshold bounds:
// Predict's decision, and for a parallel one an unbounded Estimate of
// each of servedCandidates, keeping the first fastest. It is the
// independent check that the bounded estimates of Tuner.PredictTimed
// pick the same plan.
func servedLongWay(t *Tuner, inst plan.Instance) (Prediction, float64, error) {
	sys := t.System()
	pred := t.Predict(inst)
	if pred.Serial {
		return pred, engine.SerialNs(sys, inst), nil
	}
	var best Prediction
	bestNs := math.Inf(1)
	for _, c := range servedCandidates(t, pred, inst) {
		res, err := engine.Estimate(sys, inst, c.Par, engine.Options{})
		if err != nil {
			return Prediction{}, 0, err
		}
		if res.RTimeNs < bestNs {
			best, bestNs = c, res.RTimeNs
		}
	}
	return best, bestNs, nil
}

// TestEvaluateMatchesPerConfigEstimate: Evaluate's points equal, bit for
// bit in every field, those of a per-configuration Estimate loop, on the
// quick-space Figure 10 instances of every system plus a rectangular, a
// masked and two square instances.
func TestEvaluateMatchesPerConfigEstimate(t *testing.T) {
	space := QuickSpace()
	var insts []plan.Instance
	for _, dim := range []int{700, 1900} {
		for _, rounds := range []int{1, 8} {
			k := kernels.NewNash(rounds)
			insts = append(insts, plan.Instance{Dim: dim, TSize: k.TSize(), DSize: k.DSize()})
		}
	}
	// The last two are served a GPU plan where the REP tree says
	// CPU-only: the first on the dual-GPU systems, the second on i3-540.
	insts = append(insts,
		plan.Instance{Rows: 600, Cols: 1400, TSize: 1000, DSize: 1},
		plan.Instance{Dim: 1100, TSize: 1000, DSize: 1, LiveCells: 1100 * 1101 / 2},
		plan.Instance{Dim: 700, TSize: 2000, DSize: 1},
		plan.Instance{Dim: 1100, TSize: 100, DSize: 1})
	for _, sys := range hw.Systems() {
		sr, err := Exhaustive(sys, space, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		tuner, err := Train(sr, DefaultTrainOptions())
		if err != nil {
			t.Fatal(err)
		}
		got, err := Evaluate(tuner, space, insts)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(insts) {
			t.Fatalf("%s: %d points for %d instances", sys.Name, len(got), len(insts))
		}
		for i, inst := range insts {
			want, err := perConfigEval(tuner, space, inst)
			if err != nil {
				t.Fatal(err)
			}
			// %#v tells apart every float bit pattern == would merge.
			if g, w := fmt.Sprintf("%#v", got[i]), fmt.Sprintf("%#v", want); g != w {
				t.Errorf("%s %v:\nEvaluate  %s\nper-config %s", sys.Name, inst, g, w)
			}
		}
	}
}
