package core_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/hw"
	"repro/internal/kernels"
	"repro/internal/plan"
)

// servedGrid is a spread of square, rectangular and masked instances
// across the serving range of dims, granularities and element sizes.
func servedGrid() []plan.Instance {
	var insts []plan.Instance
	for _, dim := range []int{300, 700, 1300, 2100, 3300} {
		for _, tsize := range []float64{0.5, 10, 100, 1000, 8000} {
			for _, dsize := range []int{0, 1, 5} {
				insts = append(insts,
					plan.Instance{Dim: dim, TSize: tsize, DSize: dsize},
					plan.Instance{Rows: dim / 2, Cols: dim * 3 / 2, TSize: tsize, DSize: dsize},
					plan.Instance{Dim: dim, TSize: tsize, DSize: dsize, LiveCells: dim * (dim + 1) / 2})
			}
		}
	}
	return insts
}

// TestServedPlanNeverSlower: on the shipped tuners, the served decision
// is never slower than the models' plan, its runtime is an unbounded
// Estimate of the served params bit for bit, and a serial decision is
// Predict's, served unchecked.
func TestServedPlanNeverSlower(t *testing.T) {
	grid := servedGrid()
	for _, sys := range hw.Systems() {
		tuner := factoryTuner(t, sys)
		changed := 0
		for _, inst := range grid {
			model := tuner.Predict(inst)
			pred, rtime, serial, err := tuner.PredictTimed(inst)
			if err != nil {
				t.Fatalf("%s %v: PredictTimed: %v", sys.Name, inst, err)
			}
			if serial != engine.SerialNs(sys, inst) {
				t.Errorf("%s %v: serial baseline %v, want %v", sys.Name, inst, serial, engine.SerialNs(sys, inst))
			}
			if model.Serial {
				if pred != model || rtime != serial {
					t.Errorf("%s %v: serial decision served as %v at %v, want %v at %v", sys.Name, inst, pred, rtime, model, serial)
				}
				continue
			}
			modelRes, err := engine.Estimate(sys, inst, model.Par, engine.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if rtime > modelRes.RTimeNs {
				t.Errorf("%s %v: served %v at %v ns, slower than the model's %v at %v ns", sys.Name, inst, pred, rtime, model, modelRes.RTimeNs)
			}
			res, err := engine.Estimate(sys, inst, pred.Par, engine.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if pred.Serial || res.RTimeNs != rtime {
				t.Errorf("%s %v: served %v at %v ns, but its Estimate reads %v ns", sys.Name, inst, pred, rtime, res.RTimeNs)
			}
			if pred != model {
				changed++
			}
		}
		t.Logf("%s: %d of %d served plans differ from the models' plan", sys.Name, changed, len(grid))
	}
}

// TestServedPlanRingLocal: on the shipped tuners over servedGrid, no
// move of a served plan's ring is strictly faster than it, unless its
// climb spent the whole probe budget.
func TestServedPlanRingLocal(t *testing.T) {
	for _, sys := range hw.Systems() {
		tuner := factoryTuner(t, sys)
		spent, longest := 0, 0
		for _, inst := range servedGrid() {
			pred, rtime, _, err := tuner.PredictTimed(inst)
			if err != nil {
				t.Fatal(err)
			}
			if pred.Serial {
				continue
			}
			probes := core.ServedEstimates(tuner, inst) - 1
			longest = max(longest, probes)
			if probes == core.ServedBudget {
				spent++
				continue
			}
			moves, ring := tuner.Neighbourhood(inst, pred.Par)
			for _, q := range moves[:ring] {
				res, err := engine.Estimate(sys, inst, q, engine.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if res.RTimeNs < rtime {
					t.Errorf("%s %v: served %v at %v ns, but its ring move %v takes %v ns", sys.Name, inst, pred, rtime, q, res.RTimeNs)
				}
			}
		}
		t.Logf("%s: longest climb %d probes, %d climbs spent the budget of %d", sys.Name, longest, spent, core.ServedBudget)
	}
}

// tuneColdWorst are the three keys of wavebench's tune-cold efficiency
// sample that lost most when the models' GPU plan was served unchecked
// (0.498, 0.621 and 0.743): on each, CPU-only is optimal.
var tuneColdWorst = []struct {
	sys  hw.System
	inst plan.Instance
}{
	{hw.I7_3820(), plan.Instance{Rows: 504, Cols: 1352, TSize: 404, DSize: 1}},
	{hw.I7_2600K(), plan.Instance{Dim: 826, TSize: 534, DSize: 3}},
	{hw.I3_540(), plan.Instance{Dim: 1729, TSize: 36, DSize: 5}},
}

// TestServedPlanTuneColdWorst: those keys are served CPU-only, within
// 1% of the quick-space optimum.
func TestServedPlanTuneColdWorst(t *testing.T) {
	for _, k := range tuneColdWorst {
		tuner := factoryTuner(t, k.sys)
		pts, err := core.Evaluate(tuner, core.QuickSpace(), []plan.Instance{k.inst})
		if err != nil {
			t.Fatal(err)
		}
		e := pts[0]
		t.Logf("%s %v: models' plan %v, served %v, efficiency %.3f (optimum %v)",
			k.sys.Name, k.inst, tuner.Predict(k.inst), e.Pred, e.Efficiency(), e.BestPar)
		if e.Pred.Serial || e.Pred.Par.Band >= 0 {
			t.Errorf("%s %v: served %v, want a CPU-only plan", k.sys.Name, k.inst, e.Pred)
		}
		if e.Efficiency() < 0.99 {
			t.Errorf("%s %v: efficiency %.3f below 0.99", k.sys.Name, k.inst, e.Efficiency())
		}
	}
}

// servedBandKeys are keys whose models' plan uses a GPU at a band the
// served check moves: their efficiency on QuickSpace with the models'
// plan, and with the served one. With one pass over the ring the
// served plans read 0.9832, 1.000 and 0.9872; the climb also moves
// their halo, and the last one's gpu-tile to 8.
var servedBandKeys = []struct {
	sys           hw.System
	inst          plan.Instance
	model, served float64
}{
	{hw.I7_3820(), plan.Instance{Rows: 810, Cols: 2213, TSize: 1400, DSize: 5}, 0.9297, 0.9992},
	{hw.I7_2600K(), plan.Instance{Dim: 1572, TSize: 2160, DSize: 1}, 0.9727, 1.0010},
	{hw.I7_2600K(), plan.Instance{Rows: 500, Cols: 2700, TSize: kernels.NewNash(2).TSize(), DSize: kernels.NewNash(2).DSize()}, 0.9561, 1.0691},
}

// TestServedPlanBandCheck: on those keys the served plan is a GPU plan
// at another band than the models', and reaches the efficiency the
// models' band misses.
func TestServedPlanBandCheck(t *testing.T) {
	for _, k := range servedBandKeys {
		tuner := factoryTuner(t, k.sys)
		model := tuner.Predict(k.inst)
		pts, err := core.Evaluate(tuner, core.QuickSpace(), []plan.Instance{k.inst})
		if err != nil {
			t.Fatal(err)
		}
		e := pts[0]
		modelRes, err := engine.Estimate(k.sys, k.inst, model.Par, engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		modelEff := (e.SerialNs / modelRes.RTimeNs) / (e.SerialNs / e.BestNs)
		t.Logf("%s %v: models' plan %v (efficiency %.4f), served %v (efficiency %.4f), optimum %v",
			k.sys.Name, k.inst, model, modelEff, e.Pred, e.Efficiency(), e.BestPar)
		if model.Serial || model.Par.Band < 0 {
			t.Fatalf("%s %v: models' plan %v, want a GPU plan", k.sys.Name, k.inst, model)
		}
		if e.Pred.Serial || e.Pred.Par.Band < 0 || e.Pred.Par.Band == model.Par.Band {
			t.Errorf("%s %v: served %v, want a GPU plan at another band than the models'", k.sys.Name, k.inst, e.Pred)
		}
		if math.Abs(modelEff-k.model) > 5e-5 {
			t.Errorf("%s %v: models' plan reads %.4f, want %.4f", k.sys.Name, k.inst, modelEff, k.model)
		}
		if e.Efficiency() < k.served-5e-5 {
			t.Errorf("%s %v: served efficiency %.4f below %.4f", k.sys.Name, k.inst, e.Efficiency(), k.served)
		}
	}
}

// TestPredictTimedAllocations bounds the served decision's allocations
// at one per estimate: the models' plan and each ring move its climb
// probes.
func TestPredictTimedAllocations(t *testing.T) {
	for _, k := range tuneColdWorst {
		tuner := factoryTuner(t, k.sys)
		estimates := core.ServedEstimates(tuner, k.inst)
		n := testing.AllocsPerRun(100, func() {
			if _, _, _, err := tuner.PredictTimed(k.inst); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s %v: %d estimates, %.0f allocations", k.sys.Name, k.inst, estimates, n)
		if n > float64(estimates) {
			t.Errorf("%s %v: PredictTimed allocates %.0f times per run over %d estimates, want at most one per estimate", k.sys.Name, k.inst, n, estimates)
		}
	}
}

// TestServedPlanGPUCandidate: when the REP tree's "0" makes the models'
// plan CPU-only, the served check also estimates the GPU plan the band
// and halo models imply at gpu-tile 1. On this key the i7-3820 tuner
// predicts CPU-only (efficiency 0.955 on QuickSpace) and the GPU
// candidate reaches the optimum. A tuner trained without GPU rows, and
// the same tuner with no band or halo model at all, serve CPU-only plans
// without panicking.
func TestServedPlanGPUCandidate(t *testing.T) {
	sys := hw.I7_3820()
	k := kernels.NewNash(1)
	inst := plan.Instance{Dim: 1500, TSize: k.TSize(), DSize: k.DSize()}
	tuner := factoryTuner(t, sys)
	model := tuner.Predict(inst)
	pts, err := core.Evaluate(tuner, core.QuickSpace(), []plan.Instance{inst})
	if err != nil {
		t.Fatal(err)
	}
	e := pts[0]
	t.Logf("%s %v: models' plan %v, served %v, efficiency %.3f (optimum %v)",
		sys.Name, inst, model, e.Pred, e.Efficiency(), e.BestPar)
	if model.Serial || model.Par.Band >= 0 {
		t.Fatalf("models' plan %v, want a CPU-only plan", model)
	}
	if e.Pred.Serial || e.Pred.Par.Band < 0 || e.Pred.Par.GPUTile != 1 || e.Pred.Par.CPUTile != model.Par.CPUTile {
		t.Errorf("served %v, want the models' GPU plan at gpu-tile 1 and cpu-tile %d", e.Pred, model.Par.CPUTile)
	}
	if e.Efficiency() < 1.0 {
		t.Errorf("efficiency %.4f below 1.0", e.Efficiency())
	}

	cpuOnly := bandlessTuner(t, sys)
	noBand := *cpuOnly
	noBand.Band, noBand.Halo = nil, nil
	for _, tuner := range []*core.Tuner{cpuOnly, &noBand} {
		for _, inst := range servedGrid() {
			pred, _, _, err := tuner.PredictTimed(inst)
			if err != nil {
				t.Fatalf("%v: %v", inst, err)
			}
			if pred.Par.Band >= 0 {
				t.Errorf("%v: a tuner trained without GPU rows served %v", inst, pred)
			}
		}
	}
}

// bandlessTuner trains a tuner for sys on a QuickSpace whose every
// configuration is CPU-only, so its REP tree never employs the GPU and
// its band model learns from no rows.
func bandlessTuner(t *testing.T, sys hw.System) *core.Tuner {
	t.Helper()
	space := core.QuickSpace()
	space.Dims, space.BandFracs, space.HaloFracs = []int{500, 1100}, []float64{-1}, []float64{-1}
	sr, err := core.Exhaustive(sys, space, core.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tuner, err := core.Train(sr, core.DefaultTrainOptions())
	if err != nil {
		t.Fatal(err)
	}
	return tuner
}
