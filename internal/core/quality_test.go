package core_test

import (
	"io/fs"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/plan"
	"repro/internal/service"
	"repro/internal/stats"
)

// The decision-quality gates score tuners by the paper's own metric,
// the fraction of the exhaustive optimum's speedup the predicted plans
// reach (core.EvalPoint.Efficiency, Figs 10-11): its mean, its 10th
// percentile and the count of plans under lowEfficiency, since a mean
// hides the few plans that lose most. The values are deterministic;
// each mean floor is the value measured when the gate was set minus
// 0.02, each p10 floor the measured value minus 0.02, and each count
// bound the measured count plus 1, so a change that moves plan quality
// down shows here before it shows in a served plan.

// lowEfficiency is the efficiency under which a plan counts as poor.
const lowEfficiency = 0.8

// qualityBounds are one system's decision-quality gates.
type qualityBounds struct {
	mean, p10 float64 // floors
	low       int     // most plans allowed under lowEfficiency
}

// TestHeldOutEfficiency trains paper-scale tuners on DefaultSpace
// (TrainFromSpace) and scores them on the DefaultSpace instances
// training never reads.
func TestHeldOutEfficiency(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale search and training")
	}
	// Measured mean 1.001, 1.001 and 1.001, p10 0.998, 0.995 and
	// 0.998, and no plan under 0.8, scoring the served decision
	// (PredictTimed's climb over its ring: the CPU-only alternatives,
	// the GPU plan's band neighbours, halo ×2 and gpu-tile ×8 and, for
	// a CPU-only decision, the GPU plan at gpu-tile 1). With one pass
	// over the ring and neither halo ×2 nor gpu-tile ×8 they read mean
	// 1.000, 0.995 and 0.997, p10 0.998, 0.967 and 0.992, with floors
	// 0.980/0.975/0.977 and p10 0.978/0.947/0.972. Without that GPU
	// candidate the means read 1.000,
	// 0.992 and 0.991 and the i7-3820 p10 0.988, with floors 0.980,
	// 0.972 and 0.971 and p10 floor 0.968. Without the band neighbours
	// the i7-3820 p10 read 0.982, with floor 0.962. The
	// models' plans alone read mean 0.992, 0.982 and 0.980, p10 0.985,
	// 0.934 and 0.938, and 2, 1 and 1 plans under 0.8, with floors
	// 0.973/0.962/0.960, p10 0.968/0.914/0.918 and bounds 3/2/2. When
	// band and halo also learned from all-CPU points and halo read
	// cpu-tile and band, they were 0.993, 0.979 and 0.975, p10 0.988,
	// 0.934 and 0.934, and 2, 1 and 2.
	// With raw dim and tsize features the means were 0.961, 0.947 and
	// 0.944; band and halo taught as raw cell counts gave 0.871, 0.917
	// and 0.843.
	bounds := map[string]qualityBounds{
		"i3-540":   {mean: 0.981, p10: 0.978, low: 1},
		"i7-2600K": {mean: 0.981, p10: 0.975, low: 1},
		"i7-3820":  {mean: 0.981, p10: 0.978, low: 1},
	}
	space, opts := core.DefaultSpace(), core.DefaultTrainOptions()
	read := make(map[plan.Instance]bool)
	for _, inst := range core.TrainingInstances(space, opts) {
		read[inst] = true
	}
	var unread []plan.Instance
	for _, inst := range space.Instances() {
		if !read[inst] {
			unread = append(unread, inst)
		}
	}
	if len(unread) != 144 {
		t.Fatalf("%d unread instances, want 144", len(unread))
	}
	for _, sys := range hw.Systems() {
		t.Run(sys.Name, func(t *testing.T) {
			tuner, err := core.TrainFromSpace(sys, space, opts)
			if err != nil {
				t.Fatal(err)
			}
			checkEfficiency(t, tuner, space, unread, bounds[sys.Name])
		})
	}
}

// catalogApps are the registry apps whose default granularity is far
// finer than the synthetic training grid's (tsize 0.4-1.5 against
// >= 10), plus Nash.
var catalogApps = []string{"dtw", "knapsack", "lcs", "morphrecon", "nussinov", "seqcompare", "swaffine", "nash"}

// TestCatalogEfficiency scores the tuners the daemon serves, decoded
// from the shipped factory files (service.FactoryTuners), on the
// catalog apps at their default parameters, against the optimum of
// DefaultSpace with the serving cpu-tile axis: the fine-grained apps'
// best plans use cpu-tiles Table 3 does not list.
func TestCatalogEfficiency(t *testing.T) {
	if testing.Short() {
		t.Skip("catalog search")
	}
	// Measured mean 1.006, 1.033 and 1.031, p10 1.000, 1.004 and
	// 1.004, and no plan under 0.8, scoring the served decision. Plans
	// read above 1 because the reference's cpu-tile axis stops at 32
	// while the doubled cpu-tile candidate reaches past it, so these
	// floors rise only to min(measured - 0.02, 0.98). The models' plans
	// alone read mean 0.995, 0.997 and 0.989, p10 0.984, 0.954 and
	// 0.940, with floors 0.975/0.977/0.969 and p10 0.964/0.934/0.920
	// (0.995, 0.994 and 0.988, p10 0.984, 0.949 and 0.940 while the
	// halo tree also read cpu-tile and band). The quick-space tuners
	// with raw dim and tsize features, served before, gave means 0.971,
	// 0.908 and 0.902.
	bounds := map[string]qualityBounds{
		"i3-540":   {mean: 0.980, p10: 0.980, low: 1},
		"i7-2600K": {mean: 0.980, p10: 0.980, low: 1},
		"i7-3820":  {mean: 0.980, p10: 0.980, low: 1},
	}
	var insts []plan.Instance
	for _, name := range catalogApps {
		app, ok := apps.Lookup(name)
		if !ok {
			t.Fatalf("app %q not registered", name)
		}
		for _, dim := range []int{700, 1500, 2500} {
			inst, _, err := app.InstanceFor(dim, dim, nil)
			if err != nil {
				t.Fatal(err)
			}
			insts = append(insts, inst)
		}
	}
	for _, sys := range hw.Systems() {
		t.Run(sys.Name, func(t *testing.T) {
			checkEfficiency(t, factoryTuner(t, sys), core.ServingSpace(core.DefaultSpace()), insts, bounds[sys.Name])
		})
	}
}

// TestDualGPUPlansUseHalo scores the shipped dual-GPU tuners on four
// coarse instances whose optimum spans both GPUs with a halo of 11-24
// rows (QuickSpace's optimum). A halo model that read the band model's
// prediction as a feature served halo 0 on seven of these eight plans,
// at 0.900-0.933 efficiency; with halo learned from the instance
// features alone the plans read 0.973-1.000.
func TestDualGPUPlansUseHalo(t *testing.T) {
	insts := []plan.Instance{
		{Dim: 3087, TSize: 462, DSize: 3},
		{Rows: 2950, Cols: 2495, TSize: 518, DSize: 1},
		{Dim: 1572, TSize: 2160, DSize: 1},
		{Dim: 3218, TSize: 382, DSize: 3},
	}
	for _, sys := range []hw.System{hw.I7_2600K(), hw.I7_3820()} {
		t.Run(sys.Name, func(t *testing.T) {
			pts, err := core.Evaluate(factoryTuner(t, sys), core.QuickSpace(), insts)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range pts {
				t.Logf("%v: plan %v, efficiency %.3f", e.Inst, e.Pred, e.Efficiency())
				if e.Pred.Serial || e.Pred.Par.Halo < 1 {
					t.Errorf("%v: plan %v, want a halo of at least 1 (optimum %v)", e.Inst, e.Pred, e.BestPar)
				}
				if e.Efficiency() < 0.97 {
					t.Errorf("%v: efficiency %.3f below 0.97", e.Inst, e.Efficiency())
				}
			}
		})
	}
}

// factoryTuner decodes the tuner the daemon serves for sys.
func factoryTuner(t *testing.T, sys hw.System) *core.Tuner {
	t.Helper()
	data, err := fs.ReadFile(service.FactoryTuners(), sys.Name+".json")
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.UnmarshalPredictor(data)
	if err != nil {
		t.Fatal(err)
	}
	return p.(*core.Tuner)
}

func checkEfficiency(t *testing.T, tuner *core.Tuner, space core.Space, insts []plan.Instance, b qualityBounds) {
	t.Helper()
	pts, err := core.Evaluate(tuner, space, insts)
	if err != nil {
		t.Fatal(err)
	}
	var effs []float64
	low := 0
	for _, e := range pts {
		if e.AllCensored {
			continue
		}
		effs = append(effs, e.Efficiency())
		if e.Efficiency() < lowEfficiency {
			low++
		}
	}
	mean, p10 := core.MeanEfficiency(pts), stats.Quantile(effs, 0.1)
	t.Logf("%s: efficiency mean %.3f (floor %.3f), p10 %.3f (floor %.3f), %d plans under %.1f (bound %d), over %d instances",
		tuner.Sys.Name, mean, b.mean, p10, b.p10, low, lowEfficiency, b.low, len(effs))
	if mean < b.mean {
		t.Errorf("%s: mean efficiency %.3f below floor %.3f", tuner.Sys.Name, mean, b.mean)
	}
	if p10 < b.p10 {
		t.Errorf("%s: p10 efficiency %.3f below floor %.3f", tuner.Sys.Name, p10, b.p10)
	}
	if low > b.low {
		t.Errorf("%s: %d plans under %.1f efficiency, bound %d", tuner.Sys.Name, low, lowEfficiency, b.low)
	}
}
