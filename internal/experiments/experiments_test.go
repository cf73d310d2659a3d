package experiments

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/hw"
	"repro/internal/plan"
)

// sharedCtx caches the Quick-config searches across all tests in this
// package (they are the expensive part).
var (
	sharedOnce sync.Once
	sharedCtx  *Context
)

func ctx(t *testing.T) *Context {
	t.Helper()
	sharedOnce.Do(func() {
		cfg := Quick()
		sharedCtx = NewContext(cfg)
	})
	return sharedCtx
}

func TestFig1Profile(t *testing.T) {
	s := Fig1(4)
	if !strings.Contains(s, "****") {
		t.Error("profile must peak at dim stars")
	}
	if strings.Count(s, "\n") != 8 { // title + 7 diagonals
		t.Errorf("expected 7 iterations for dim=4:\n%s", s)
	}
}

func TestFig2ThreePhase(t *testing.T) {
	s, err := Fig2()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"phase 1", "phase 2", "phase 3", "G"} {
		if !strings.Contains(s, want) {
			t.Errorf("Figure 2 missing %q", want)
		}
	}
	// The grid must contain exactly 400 phase markers.
	marks := strings.Count(s, "1") + strings.Count(s, "G") + strings.Count(s, "3")
	if marks < 400 {
		t.Errorf("grid markers = %d, want >= 400", marks)
	}
}

func TestFig3HaloPartition(t *testing.T) {
	s, err := Fig3()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "X") {
		t.Error("Figure 3 must show a redundant overlap region")
	}
	if !strings.Contains(s, "0") || !strings.Contains(s, "1") {
		t.Error("Figure 3 must show both devices")
	}
}

func TestTables(t *testing.T) {
	if s := Table3(Quick().Space); !strings.Contains(s, "cpu-tile") {
		t.Error("Table 3 incomplete")
	}
	s := Table4(hw.Systems())
	for _, name := range []string{"i3-540", "i7-2600K", "i7-3820", "GTX 480", "Tesla"} {
		if !strings.Contains(s, name) {
			t.Errorf("Table 4 missing %s", name)
		}
	}
}

func TestFig5HeatmapShapes(t *testing.T) {
	c := ctx(t)
	// Calibration: coarse-grained large instances offload, fine small
	// ones do not, on every system.
	for _, sys := range c.Cfg.Systems {
		d1, err := c.Fig5(sys, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !d1.BandMap.Complete() {
			t.Errorf("%s: incomplete band map", sys.Name)
		}
		band, _ := d1.BandMap.Get(2700, 12000)
		if band < 0 {
			t.Errorf("%s: dim=2700 tsize=12000 dsize=1 must use the GPU", sys.Name)
		}
		bandSmall, _ := d1.BandMap.Get(500, 10)
		if bandSmall >= 0 {
			t.Errorf("%s: dim=500 tsize=10 must stay on the CPU", sys.Name)
		}
		if r := d1.Render(); !strings.Contains(r, "best band") {
			t.Error("render missing band map")
		}
	}
}

func TestFig5ThresholdOrdering(t *testing.T) {
	c := ctx(t)
	// The slow-CPU i3 must offload at a tsize threshold no higher than
	// the fast-CPU i7 systems (paper Section 4.1.1).
	i3, err := c.Fig5(hw.I3_540(), 1)
	if err != nil {
		t.Fatal(err)
	}
	i7, err := c.Fig5(hw.I7_2600K(), 1)
	if err != nil {
		t.Fatal(err)
	}
	thI3 := i3.GPUThreshold()
	thI7 := i7.GPUThreshold()
	for _, dim := range []int{1900, 2700} {
		a, b := thI3[dim], thI7[dim]
		if a < 0 || b < 0 {
			t.Fatalf("dim=%d: no GPU threshold found (i3=%v i7=%v)", dim, a, b)
		}
		if a > b {
			t.Errorf("dim=%d: i3 threshold %v must be <= i7 threshold %v", dim, a, b)
		}
	}
}

func TestFig5DsizeRaisesThreshold(t *testing.T) {
	c := ctx(t)
	for _, sys := range c.Cfg.Systems {
		d1, err := c.Fig5(sys, 1)
		if err != nil {
			t.Fatal(err)
		}
		d5, err := c.Fig5(sys, 5)
		if err != nil {
			t.Fatal(err)
		}
		t1, t5 := d1.GPUThreshold(), d5.GPUThreshold()
		// At dim=1900, 48-byte elements must not lower the offload
		// threshold.
		a, b := t1[1900], t5[1900]
		if a >= 0 && b >= 0 && b < a {
			t.Errorf("%s: dsize=5 threshold %v below dsize=1 threshold %v", sys.Name, b, a)
		}
	}
}

func TestFig6BaselineShapes(t *testing.T) {
	c := ctx(t)
	rows, err := c.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("want 3 systems, got %d", len(rows))
	}
	for _, r := range rows {
		if r.Best < r.CPUOnly || r.Best < r.GPUOnly {
			t.Errorf("%s: exhaustive best must dominate both baselines (%+v)", r.Sys.Name, r)
		}
		if r.Best <= 1 {
			t.Errorf("%s: best speedup %v must exceed serial", r.Sys.Name, r.Best)
		}
	}
	// Paper: on the i7 systems, GPU-only averages worse than CPU-only.
	for _, r := range rows {
		if strings.HasPrefix(r.Sys.Name, "i7") && r.GPUOnly >= r.CPUOnly {
			t.Errorf("%s: GPU-only (%v) must average below CPU-only (%v)",
				r.Sys.Name, r.GPUOnly, r.CPUOnly)
		}
	}
	if s := RenderFig6(rows); !strings.Contains(s, "GPU only") {
		t.Error("render incomplete")
	}
}

func TestFig7AverageGap(t *testing.T) {
	c := ctx(t)
	rows, err := c.Fig7(hw.I7_2600K(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	// The best point must beat the average configuration substantially
	// (paper: 1.5-2x for dsize=1).
	var ratioSum float64
	n := 0
	for _, r := range rows {
		if r.BerSec <= 0 || r.AvgSec <= 0 {
			continue
		}
		ratioSum += r.AvgSec / r.BerSec
		n++
	}
	avgRatio := ratioSum / float64(n)
	if avgRatio < 1.2 {
		t.Errorf("avg/ber = %.2f; tuning must matter (paper: 1.5-2x)", avgRatio)
	}
	if s := RenderFig7(hw.I7_2600K(), 1, rows); !strings.Contains(s, "ber(s)") {
		t.Error("render incomplete")
	}
}

func TestFig8ViolinShapes(t *testing.T) {
	c := ctx(t)
	vs, err := c.Fig8(hw.I7_2600K(), []int{1100, 2700}, []int{1}, []float64{100, 12000})
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 4 {
		t.Fatalf("want 4 violins, got %d", len(vs))
	}
	byKey := map[[2]int]Fig8Violin{}
	for _, v := range vs {
		byKey[[2]int{v.Inst.Dim, int(v.Inst.TSize)}] = v
	}
	// Large coarse instances have many near-optimal configurations (flat
	// base); small fine ones have a sharp optimum.
	flat := byKey[[2]int{2700, 12000}].FlatBase
	sharp := byKey[[2]int{1100, 100}].FlatBase
	if flat <= sharp {
		t.Errorf("flat-base ordering violated: coarse %.2f vs fine %.2f", flat, sharp)
	}
	if s := RenderFig8(hw.I7_2600K(), vs); !strings.Contains(s, "med=") {
		t.Error("render incomplete")
	}
}

func TestFig9ModelTree(t *testing.T) {
	c := ctx(t)
	s, err := c.Fig9(hw.I7_2600K())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "LM1") {
		t.Error("Figure 9 must contain at least one linear model")
	}
	if !strings.Contains(s, "halo =") {
		t.Error("Figure 9 must render halo equations")
	}
	if !strings.Contains(s, "cross-validated accuracies") {
		t.Error("Figure 9 must report model accuracies")
	}
}

// TestFig10AutotuneQuality gates Figure 10 at paper scale (Full), or
// at quick scale with -short. The efficiencies are deterministic; each
// floor is its measured value minus the spread across the three
// systems: 1.003, 0.990 and 0.985 (spread 0.018) at paper scale, and
// 1.005, 0.997 and 1.008 (spread 0.011) at quick scale. The paper
// reports ~0.98.
func TestFig10AutotuneQuality(t *testing.T) {
	c, floors := ctx(t), map[string]float64{"i3-540": 0.994, "i7-2600K": 0.986, "i7-3820": 0.997}
	if !testing.Short() {
		c = NewContext(Full())
		floors = map[string]float64{"i3-540": 0.985, "i7-2600K": 0.972, "i7-3820": 0.967}
	}
	rows, err := c.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("want 3 systems, got %d", len(rows))
	}
	for _, r := range rows {
		t.Logf("%s: Figure 10 efficiency %.3f (floor %.3f)", r.Sys.Name, r.Efficiency, floors[r.Sys.Name])
		if r.Efficiency < floors[r.Sys.Name] {
			t.Errorf("%s: tuner efficiency %.3f below floor %.3f", r.Sys.Name, r.Efficiency, floors[r.Sys.Name])
		}
		if r.ExhaustiveSpeedup <= 1 {
			t.Errorf("%s: exhaustive speedup must exceed serial", r.Sys.Name)
		}
	}
	if s := RenderFig10(rows); !strings.Contains(s, "efficiency") {
		t.Error("render incomplete")
	}
	if s := RenderFig11(rows); !strings.Contains(s, "auto/ber") {
		t.Error("Figure 11 render incomplete")
	}
}

func TestSeqCompareStaysOnCPU(t *testing.T) {
	c := ctx(t)
	res, err := c.SeqCompare()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if !r.AllCPU {
			t.Errorf("%s: fine-grained sequence comparison must stay on the CPU "+
				"(paper: band=-1 for all tsize<100); got %v", r.Sys.Name, r.Preds)
		}
	}
}

func TestHeadlineNumbers(t *testing.T) {
	c := ctx(t)
	h, err := c.ComputeHeadline()
	if err != nil {
		t.Fatal(err)
	}
	// The paper's headline: max 20x, average 7.8x, 98% efficiency. The
	// shape gates below allow the simulated substitution latitude while
	// pinning the order of magnitude.
	if h.MaxSpeedup < 10 || h.MaxSpeedup > 40 {
		t.Errorf("max speedup %.1f outside [10,40] (paper ~20x)", h.MaxSpeedup)
	}
	if h.AvgSpeedup < 3 || h.AvgSpeedup > 15 {
		t.Errorf("avg speedup %.1f outside [3,15] (paper 7.8x)", h.AvgSpeedup)
	}
	if h.TunerEfficiency < 0.8 {
		t.Errorf("tuner efficiency %.2f below 0.8 (paper 0.98)", h.TunerEfficiency)
	}
	if !h.SeqAllCPU {
		t.Error("sequence comparison must stay on the CPU")
	}
	if s := h.Render(); !strings.Contains(s, "paper") {
		t.Error("headline render incomplete")
	}
}

func TestBaselineGPUOnlyHelper(t *testing.T) {
	inst := plan.Instance{Dim: 500, TSize: 100, DSize: 1}
	res, err := engine.Estimate(hw.I3_540(), inst, engine.GPUOnlyParamsFor(inst), engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.RTimeNs <= 0 {
		t.Error("GPU-only baseline must be positive")
	}
}
