package core

import (
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/hw"
	"repro/internal/plan"
)

// trainedTree trains a tree tuner on the tiny i7-2600K search space.
func trainedTree(t *testing.T) *Tuner {
	t.Helper()
	sr, err := Exhaustive(hw.I7_2600K(), tinySpace(), SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := Train(sr, DefaultTrainOptions())
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// registryInstances builds one mid-sized instance per registered
// application, supplying the synthetic trainer's required granularity
// parameters explicitly and leaving the others to InstanceFor's
// defaults.
func registryInstances(t *testing.T, dim int) map[string]plan.Instance {
	t.Helper()
	out := make(map[string]plan.Instance)
	for _, a := range apps.All() {
		v := apps.Values{}
		for _, p := range a.Params {
			if !p.Required {
				continue
			}
			switch p.Name {
			case "tsize":
				v[p.Name] = 200
			case "dsize":
				v[p.Name] = 5
			default:
				v[p.Name] = 1
			}
		}
		inst, _, err := a.InstanceFor(dim, dim, v)
		if err != nil {
			t.Fatalf("%s: InstanceFor: %v", a.Name, err)
		}
		out[a.Name] = inst
	}
	return out
}

// TestBackendParityAcrossRegistryApps checks that the tree tuner
// produces valid, clamped, Normalize-stable predictions for every
// registered application.
func TestBackendParityAcrossRegistryApps(t *testing.T) {
	tree := trainedTree(t)
	for _, dim := range []int{700, 1500} {
		for name, inst := range registryInstances(t, dim) {
			checkPrediction(t, name, inst, tree.Predict(inst))
			if _, rtime, _, err := tree.PredictTimed(inst); err != nil {
				t.Errorf("%s %v: PredictTimed: %v", name, inst, err)
			} else if rtime <= 0 {
				t.Errorf("%s %v: rtime = %v, want > 0", name, inst, rtime)
			}
		}
	}
}

// checkPrediction asserts the deployment invariants: clamped
// parameters, Normalize stability, buildability.
func checkPrediction(t *testing.T, label string, inst plan.Instance, pred Prediction) {
	t.Helper()
	par := pred.Par
	maxTile := inst.MaxSide()
	if maxTile > 64 {
		maxTile = 64
	}
	if par.CPUTile < 1 || par.CPUTile > maxTile {
		t.Errorf("%s %v: cpu tile %d outside [1, %d]", label, inst, par.CPUTile, maxTile)
	}
	if par.GPUTile < 1 || par.GPUTile > 25 {
		t.Errorf("%s %v: gpu tile %d outside [1, 25]", label, inst, par.GPUTile)
	}
	if par.Band < -1 || par.Band > inst.MaxUsefulBand() {
		t.Errorf("%s %v: band %d outside [-1, %d]", label, inst, par.Band, inst.MaxUsefulBand())
	}
	if par.Band < 0 {
		if par.Halo != -1 {
			t.Errorf("%s %v: halo %d without a band", label, inst, par.Halo)
		}
	} else if par.Halo < -1 || par.Halo > plan.MaxHaloFor(inst, par.Band) {
		t.Errorf("%s %v: halo %d outside [-1, %d]", label, inst, par.Halo, plan.MaxHaloFor(inst, par.Band))
	}
	if par.Normalize() != par {
		t.Errorf("%s %v: prediction not Normalize-stable: %v", label, inst, par)
	}
	if _, err := plan.Build(inst, par); err != nil {
		t.Errorf("%s %v: unbuildable prediction %v: %v", label, inst, par, err)
	}
}

// predictSink keeps the compiler from eliding Predict calls in the
// allocation test and benchmarks.
var predictSink Prediction

// TestPredictZeroAlloc pins the hot-path guarantee: a Predict call
// performs no heap allocation.
func TestPredictZeroAlloc(t *testing.T) {
	tree := trainedTree(t)
	insts := []plan.Instance{
		{Dim: 700, TSize: 200, DSize: 1}, // parallel, GPU candidates
		{Dim: 1500, TSize: 3000, DSize: 5},
		{Dim: 300, TSize: 10, DSize: 1}, // small/serial-leaning
	}
	for _, inst := range insts {
		if n := testing.AllocsPerRun(100, func() { predictSink = tree.Predict(inst) }); n != 0 {
			t.Errorf("Predict(%v) allocates %.0f times per run, want 0", inst, n)
		}
	}
}

func TestTrainPredictorUnknownKind(t *testing.T) {
	sr, err := Exhaustive(hw.I7_2600K(), tinySpace(), SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"quadratic", "bilinear"} {
		if _, err := TrainPredictor(kind, sr, DefaultTrainOptions()); err == nil {
			t.Fatalf("kind %q must error", kind)
		} else if !strings.Contains(err.Error(), kind) {
			t.Errorf("error %q does not name the unknown kind", err)
		}
	}
	for _, kind := range []string{"", KindTree} {
		if _, err := TrainPredictor(kind, sr, DefaultTrainOptions()); err != nil {
			t.Fatalf("TrainPredictor(%q): %v", kind, err)
		}
	}
}

// TestCountOf pins the fraction-to-count mapping Predict applies to the
// band and halo models: the -1 sentinel is decided on the raw
// prediction, before the fraction is clamped and scaled, so a small
// negative prediction means zero cells rather than the sentinel.
func TestCountOf(t *testing.T) {
	for _, c := range []struct {
		frac  float64
		limit int
		want  int
	}{
		{-0.6, 100, -1},
		{-0.5, 100, 0},
		{-0.4, 100, 0},
		{-0.4, 0, 0},
		{0, 100, 0},
		{1.3, 100, 100},
		{0.25, 10, 3}, // 2.5 rounds half away from zero
		{0.24, 10, 2},
		{0.5, 3, 2}, // 1.5
	} {
		if got := countOf(c.frac, c.limit); got != c.want {
			t.Errorf("countOf(%v, %d) = %d, want %d", c.frac, c.limit, got, c.want)
		}
	}
	for _, c := range []struct{ count, limit int }{{-1, 50}, {0, 50}, {17, 50}, {50, 50}, {0, 0}} {
		if got := countOf(fracOf(c.count, c.limit), c.limit); got != c.count {
			t.Errorf("countOf(fracOf(%d, %d)) = %d, want the count back", c.count, c.limit, got)
		}
	}
}
