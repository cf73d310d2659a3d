package core

import "repro/internal/plan"

// EvalPoint compares the tuner against the exhaustive optimum on one
// instance, the measurement behind Figures 10 and 11.
type EvalPoint struct {
	Inst     plan.Instance
	SerialNs float64
	// BestNs is the best exhaustive runtime ("ber"); AllCensored is set
	// when the threshold censored every configuration.
	BestNs      float64
	BestPar     plan.Params
	AllCensored bool
	// AutoNs is the modeled runtime of the tuner's served decision.
	AutoNs float64
	Pred   Prediction
}

// BestSpeedup returns serial/ber.
func (e EvalPoint) BestSpeedup() float64 {
	if e.BestNs <= 0 {
		return 0
	}
	return e.SerialNs / e.BestNs
}

// AutoSpeedup returns serial/auto.
func (e EvalPoint) AutoSpeedup() float64 {
	if e.AutoNs <= 0 {
		return 0
	}
	return e.SerialNs / e.AutoNs
}

// Efficiency returns the fraction of the exhaustive speedup the tuner
// achieved; values above 1 are the paper's "super-optimal" predictions
// outside the searched grid.
func (e EvalPoint) Efficiency() float64 {
	if e.BestSpeedup() == 0 {
		return 0
	}
	return e.AutoSpeedup() / e.BestSpeedup()
}

// Evaluate compares the tuner's served decision (PredictTimed) against
// the exhaustive optimum on each instance, so the figures and quality
// gates judge the plan the daemon serves. The optimum comes from the
// exhaustive search over the space's configurations of the listed
// instances: the first fastest uncensored point, as InstanceResult.Best
// picks it.
func Evaluate(t Predictor, space Space, insts []plan.Instance) ([]EvalPoint, error) {
	sr, err := search(t.System(), space, insts, SearchOptions{})
	if err != nil {
		return nil, err
	}
	out := make([]EvalPoint, 0, len(insts))
	for _, ir := range sr.Instances {
		best, ok := ir.Best()
		e := EvalPoint{
			Inst: ir.Inst, SerialNs: ir.SerialNs,
			BestNs: best.RTimeNs, BestPar: best.Par, AllCensored: !ok,
		}
		if e.Pred, e.AutoNs, _, err = t.PredictTimed(ir.Inst); err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}

// MeanEfficiency averages Efficiency over points with a defined optimum —
// the paper's "98% of exhaustive performance" headline.
func MeanEfficiency(points []EvalPoint) float64 {
	var s float64
	n := 0
	for _, e := range points {
		if e.AllCensored {
			continue
		}
		s += e.Efficiency()
		n++
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}
