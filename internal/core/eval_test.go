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

// servedLongWay builds the served decision without threshold bounds:
// Predict's decision, and for a parallel one an unbounded Estimate of
// its plan and of each move of its neighbourhood's ring, keeping the
// first fastest. It is the independent check that the bounded estimates
// of Tuner.PredictTimed pick the same plan.
func servedLongWay(t *Tuner, inst plan.Instance) (Prediction, float64, error) {
	sys := t.System()
	pred := t.Predict(inst)
	if pred.Serial {
		return pred, engine.SerialNs(sys, inst), nil
	}
	var buf [maxMoves]plan.Params
	moves, ring := t.neighbourhood(&buf, inst, pred.Par)
	var best Prediction
	bestNs := math.Inf(1)
	for _, par := range append([]plan.Params{pred.Par}, moves[:ring]...) {
		res, err := engine.Estimate(sys, inst, par, engine.Options{})
		if err != nil {
			return Prediction{}, 0, err
		}
		if res.RTimeNs < bestNs {
			best, bestNs = Prediction{Par: par}, res.RTimeNs
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
