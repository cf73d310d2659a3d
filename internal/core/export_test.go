package core

import "repro/internal/plan"

// ServedEstimates is the number of estimates Tuner.PredictTimed makes
// for inst: none for a serial decision, otherwise one per candidate of
// servedCandidates.
func ServedEstimates(t *Tuner, inst plan.Instance) int {
	pred := t.Predict(inst)
	if pred.Serial {
		return 0
	}
	return len(servedCandidates(t, pred, inst))
}
