package experiments

import (
	"strings"
	"testing"

	"repro/internal/hw"
)

func TestAblateGPUTileConfirmsPaperFinding(t *testing.T) {
	// Section 4.1.1: "GPU tiling was not beneficial in our search space".
	// Restricting gpu-tile to 1 must cost (almost) nothing at the optima.
	c := ctx(t)
	rows, err := c.AblateGPUTile(hw.I7_2600K())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no ablation rows")
	}
	if p := MeanPenalty(rows); p > 1.01 {
		t.Errorf("forcing gpu-tile=1 costs %.3fx on average; the paper found tiling useless", p)
	}
}

func TestAblateHaloShowsTuningValue(t *testing.T) {
	// Halo tuning must matter somewhere: restricting to halo<=0 should
	// hurt at least one instance measurably (the communication/
	// recomputation trade-off is real).
	c := ctx(t)
	rows, err := c.AblateHalo(hw.I7_2600K())
	if err != nil {
		t.Fatal(err)
	}
	if MaxPenalty(rows) < 1.02 {
		t.Errorf("halo ablation max penalty %.3fx; the tunable appears worthless",
			MaxPenalty(rows))
	}
	if s := RenderAblation("halo<=0", hw.I7_2600K(), rows); !strings.Contains(s, "penalty") {
		t.Error("render incomplete")
	}
}

func TestAblateSmoothing(t *testing.T) {
	c := ctx(t)
	res, err := c.AblateSmoothing(hw.I7_2600K())
	if err != nil {
		t.Fatal(err)
	}
	// The values the two independent cross-validations (each growing
	// its own fold trees) gave: sharing the fold trees between the
	// smoothing settings must not move them (25/44 and 8/11; with raw
	// dim and tsize features smoothing gave 6/11).
	want := SmoothingAblation{WithSmoothing: 0.5681818181818182, WithoutSmoothing: 0.7272727272727273}
	if res != want {
		t.Errorf("AblateSmoothing = %+v, want %+v", res, want)
	}
}

func TestAblateQualityWindow(t *testing.T) {
	c := ctx(t)
	res, err := c.AblateQualityWindow(hw.I7_2600K())
	if err != nil {
		t.Fatal(err)
	}
	// The window exists because unfiltered top-K rows inject bad
	// decisions; with it, efficiency must not be (meaningfully) worse.
	if res.WithWindow < res.WithoutWindow-0.05 {
		t.Errorf("quality window hurt efficiency: with %.3f vs without %.3f",
			res.WithWindow, res.WithoutWindow)
	}
}
