package core

import (
	"fmt"

	"repro/internal/hw"
	"repro/internal/plan"
)

// KindTree names the paper's model: an SVM parallelism gate, M5 model
// trees for cpu-tile/band/halo and a REP tree for gpu-tile. It is the
// only model kind, and the "kind" field of every tuner file.
const KindTree = "tree"

// Predictor is a deployed tuning model for one system. Tuner is its
// only implementation; everything above core — the plan cache, the
// service, refine jobs, champion/challenger retraining — programs
// against this interface.
type Predictor interface {
	// System is the hardware model the predictor was trained for.
	System() hw.System
	// Quality reports cross-validated per-target training accuracy.
	Quality() TrainReport
	// Predict maps an instance to tuned settings, clamped to validity
	// and normalized (Params.Normalize).
	Predict(inst plan.Instance) Prediction
	// PredictTimed is the single-call deployment hook: the prediction
	// plus its modeled runtime and the serial baseline, in nanoseconds.
	PredictTimed(inst plan.Instance) (Prediction, float64, float64, error)
	// RTimeFor returns the modeled runtime of an arbitrary prediction
	// for inst on the predictor's system.
	RTimeFor(inst plan.Instance, pred Prediction) (float64, error)
}

// TrainPredictor fits a predictor from an exhaustive search result.
// kind must be "" or KindTree; any other kind is rejected by name.
func TrainPredictor(kind string, sr *SearchResult, opts TrainOptions) (Predictor, error) {
	if kind != "" && kind != KindTree {
		return nil, fmt.Errorf("core: unknown predictor kind %q", kind)
	}
	return Train(sr, opts)
}

// The deployment clamps: regression outputs may land outside the
// searched grid (that is how the paper's tuner found super-optimal
// points on the i3-540), so predictions are clamped to validity, never
// snapped to the grid.

// clampGPUTile bounds a work-group tile to the searched [1, 25] range.
func clampGPUTile(gt int) int {
	if gt < 1 {
		gt = 1
	}
	if gt > 25 {
		gt = 25
	}
	return gt
}

// clampBand bounds an offload band to [-1, MaxUsefulBand]: bands beyond
// the full-offload point are legal (Table 3) but equivalent, so they
// collapse to the canonical value.
func clampBand(band int, inst plan.Instance) int {
	if band < 0 {
		return -1
	}
	if m := inst.MaxUsefulBand(); band > m {
		band = m
	}
	return band
}

// clampHalo bounds a halo to [-1, MaxHaloFor(inst, band)].
func clampHalo(halo int, inst plan.Instance, band int) int {
	if halo < 0 {
		return -1
	}
	if m := plan.MaxHaloFor(inst, band); halo > m {
		halo = m
	}
	return halo
}
