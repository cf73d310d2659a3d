package core

import (
	"context"

	"repro/internal/engine"
	"repro/internal/plan"
)

// RefineBudget is refine's probe budget.
const RefineBudget = refineBudget

// ServedBudget is the served check's probe budget.
const ServedBudget = servedBudget

// ServedEstimates is the number of estimates Tuner.PredictTimed makes
// for inst: none for a serial decision, otherwise one for the models'
// plan and one per ring move its climb probes.
func ServedEstimates(t *Tuner, inst plan.Instance) int {
	pred := t.Predict(inst)
	if pred.Serial {
		return 0
	}
	res, err := engine.Estimate(t.Sys, inst, pred.Par, engine.Options{})
	if err != nil {
		panic(err)
	}
	inc := incumbent{par: pred.Par, ns: res.RTimeNs}
	probes, _, err := inc.climb(context.Background(), t.Sys, inst, servedBudget, t.ring(inst))
	if err != nil {
		panic(err)
	}
	return 1 + probes
}

// Neighbourhood returns the moves of p and the length of their first
// ring (neighbourhood).
func (t *Tuner) Neighbourhood(inst plan.Instance, p plan.Params) ([]plan.Params, int) {
	var buf [maxMoves]plan.Params
	return t.neighbourhood(&buf, inst, p)
}

// RefineFrom hill-climbs from start under refineBudget (refineFrom).
func (o *OnlineTuner) RefineFrom(inst plan.Instance, start plan.Params) (Prediction, RefineStats, error) {
	return o.refineFrom(context.Background(), inst, start, refineBudget)
}
