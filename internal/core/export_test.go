package core

import (
	"context"

	"repro/internal/plan"
)

// RefineBudget is refine's probe budget.
const RefineBudget = refineBudget

// ServedEstimates is the number of estimates Tuner.PredictTimed makes
// for inst: none for a serial decision, otherwise one for the models'
// plan and one per move of its neighbourhood's ring.
func ServedEstimates(t *Tuner, inst plan.Instance) int {
	pred := t.Predict(inst)
	if pred.Serial {
		return 0
	}
	_, ring := t.Neighbourhood(inst, pred.Par)
	return 1 + ring
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
