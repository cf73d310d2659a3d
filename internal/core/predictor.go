package core

import (
	"fmt"
	"math"

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
	// Predict maps an instance to the models' settings, clamped to
	// validity and normalized (Params.Normalize).
	Predict(inst plan.Instance) Prediction
	// PredictTimed is the single-call deployment hook and the served
	// decision: Predict's plan or the faster plan a climb over its
	// neighbourhood's first ring reaches (Tuner.PredictTimed), its
	// modeled runtime and the serial baseline, in nanoseconds.
	PredictTimed(inst plan.Instance) (Prediction, float64, float64, error)
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

// fracOf spells a band or halo count as a fraction of its maximum, the
// training target of the band and halo models. The -1 sentinel (all-CPU,
// single GPU) stays -1, and a zero maximum reads as fraction 0.
func fracOf(count, limit int) float64 {
	if count < 0 {
		return -1
	}
	if limit <= 0 {
		return 0
	}
	return float64(count) / float64(limit)
}

// countOf maps a predicted band or halo fraction back to a count in
// [-1, limit]. The sentinel is decided on the raw prediction: below -0.5
// it is -1. Otherwise the fraction is clamped to [0, 1] before it is
// scaled and rounded, so a prediction just below 0 means "no cells",
// not the sentinel. Bands beyond the full-offload point are legal
// (Table 3) but equivalent, so they collapse onto the maximum.
func countOf(frac float64, limit int) int {
	if frac < -0.5 {
		return -1
	}
	return int(math.Round(min(max(frac, 0), 1) * float64(limit)))
}
