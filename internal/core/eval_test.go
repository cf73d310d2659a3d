package core

import (
	"fmt"
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
// its plan, then passes over its neighbourhood's ring from each new
// incumbent, each move an unbounded Estimate taken when strictly faster,
// until a pass takes none or servedBudget probes are spent. It is the
// independent check that the bounded estimates of Tuner.PredictTimed
// pick the same plan.
func servedLongWay(t *Tuner, inst plan.Instance) (Prediction, float64, error) {
	sys := t.System()
	pred := t.Predict(inst)
	if pred.Serial {
		return pred, engine.SerialNs(sys, inst), nil
	}
	res, err := engine.Estimate(sys, inst, pred.Par, engine.Options{})
	if err != nil {
		return Prediction{}, 0, err
	}
	best, bestNs := pred.Par, res.RTimeNs
	probes := 0
	for improved := true; improved && probes < servedBudget; {
		improved = false
		var buf [maxMoves]plan.Params
		moves, ring := t.neighbourhood(&buf, inst, best)
		for _, par := range moves[:ring] {
			if probes == servedBudget {
				break
			}
			res, err := engine.Estimate(sys, inst, par, engine.Options{})
			if err != nil {
				return Prediction{}, 0, err
			}
			probes++
			if res.RTimeNs < bestNs {
				best, bestNs, improved = par, res.RTimeNs, true
			}
		}
	}
	return Prediction{Par: best}, bestNs, nil
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
