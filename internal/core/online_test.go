package core

import (
	"context"
	"testing"

	"repro/internal/engine"
	"repro/internal/hw"
	"repro/internal/ml"
	"repro/internal/plan"
)

var tunerCache = map[string]*Tuner{}

func trainedTuner(t *testing.T, sys hw.System) *Tuner {
	t.Helper()
	if tu, ok := tunerCache[sys.Name]; ok {
		return tu
	}
	sr, err := Exhaustive(sys, QuickSpace(), SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tu, err := Train(sr, DefaultTrainOptions())
	if err != nil {
		t.Fatal(err)
	}
	tunerCache[sys.Name] = tu
	return tu
}

func TestOnlineNeverWorseThanOffline(t *testing.T) {
	tu := trainedTuner(t, hw.I7_2600K())
	online := NewOnlineTuner(tu)
	for _, inst := range []plan.Instance{
		{Dim: 900, TSize: 3000, DSize: 1},
		{Dim: 2100, TSize: 500, DSize: 5},
		{Dim: 600, TSize: 40, DSize: 3},
	} {
		_, offNs, _, err := tu.PredictTimed(inst)
		if err != nil {
			t.Fatal(err)
		}
		_, st, err := online.Refine(inst)
		if err != nil {
			t.Fatal(err)
		}
		if st.FinalNs > offNs*1.0000001 {
			t.Errorf("%v: online %v worse than offline %v", inst, st.FinalNs, offNs)
		}
		if st.Probes > refineBudget {
			t.Errorf("%v: probes = %d, budget %d", inst, st.Probes, refineBudget)
		}
	}
}

func TestOnlineRespectsBudget(t *testing.T) {
	tu := trainedTuner(t, hw.I7_2600K())
	online := NewOnlineTuner(tu)
	inst := plan.Instance{Dim: 1500, TSize: 4000, DSize: 1}
	pred, _, _, err := tu.PredictTimed(inst)
	if err != nil {
		t.Fatal(err)
	}
	if pred.Serial {
		t.Fatalf("%v: served serial; the test needs a parallel start", inst)
	}
	_, st, err := online.refineFrom(context.Background(), inst, pred.Par, 5)
	if err != nil {
		t.Fatal(err)
	}
	if st.Probes > 5 {
		t.Errorf("probes = %d, budget 5", st.Probes)
	}
}

func TestOnlineRecoversFromBadStart(t *testing.T) {
	// Start deliberately badly: a coarse large instance forced onto the
	// CPU. The climber must switch the GPU on and improve substantially.
	tu := trainedTuner(t, hw.I7_2600K())
	online := NewOnlineTuner(tu)
	inst := plan.Instance{Dim: 2700, TSize: 12000, DSize: 1}
	bad := plan.Params{CPUTile: 1, Band: -1, GPUTile: 1, Halo: -1}
	pred, st, err := online.refineFrom(context.Background(), inst, bad, 30)
	if err != nil {
		t.Fatal(err)
	}
	if pred.Par.Band < 0 {
		t.Error("climber failed to switch the GPU on")
	}
	if st.Improvement() < 2 {
		t.Errorf("improvement %.2fx too small from a terrible start", st.Improvement())
	}
	if st.Moves == 0 {
		t.Error("no moves recorded")
	}
}

func TestOnlineLocalOptimumStops(t *testing.T) {
	// From the exhaustive optimum, refinement must stop without moving
	// (its moves cannot strictly improve... unless off-grid values do,
	// which is acceptable — then FinalNs must still be <= the optimum).
	sys := hw.I7_2600K()
	sr, err := Exhaustive(sys, QuickSpace(), SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tu := trainedTuner(t, sys)
	inst := plan.Instance{Dim: 1900, TSize: 4000, DSize: 1}
	ir, ok := sr.For(inst)
	if !ok {
		t.Fatal("instance not searched")
	}
	best, ok := ir.Best()
	if !ok {
		t.Fatal("no optimum")
	}
	online := NewOnlineTuner(tu)
	_, st, err := online.refineFrom(context.Background(), inst, best.Par, refineBudget)
	if err != nil {
		t.Fatal(err)
	}
	if st.FinalNs > best.RTimeNs {
		t.Errorf("refinement regressed below the exhaustive optimum: %v > %v",
			st.FinalNs, best.RTimeNs)
	}
}

func TestOnlineSerialGate(t *testing.T) {
	// When the gate says serial, the online tuner probes the parallel
	// alternative and keeps whichever is faster.
	tu := trainedTuner(t, hw.I3_540())
	online := NewOnlineTuner(tu)
	inst := plan.Instance{Dim: 20, TSize: 1, DSize: 0}
	pred, st, err := online.Refine(inst)
	if err != nil {
		t.Fatal(err)
	}
	if st.Probes < 1 {
		t.Error("serial gate must still probe once")
	}
	if pred.Serial {
		return
	}
	res, err := engine.Estimate(tu.Sys, inst, pred.Par, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.RTimeNs > engine.SerialNs(tu.Sys, inst)*1.0000001 {
		t.Error("online result worse than serial")
	}
}

// TestRefineFromBudgetMidNeighbourhood: a probe budget smaller than one
// neighbourhood must stop the climb mid-neighbourhood, never exceeding
// the budget.
func TestRefineFromBudgetMidNeighbourhood(t *testing.T) {
	tu := trainedTuner(t, hw.I7_2600K())
	online := NewOnlineTuner(tu)
	inst := plan.Instance{Dim: 1500, TSize: 2000, DSize: 1}
	start := plan.Params{CPUTile: 8, Band: 700, GPUTile: 4, Halo: 20}
	var buf [maxMoves]plan.Params
	if moves, _ := tu.neighbourhood(&buf, inst, start.Normalize()); len(moves) < 2 {
		t.Fatalf("start has only %d moves; the test needs a full neighbourhood", len(moves))
	}
	_, st, err := online.refineFrom(context.Background(), inst, start, 2)
	if err != nil {
		t.Fatal(err)
	}
	// One probe measures the start, leaving exactly one for the
	// neighbourhood.
	if st.Probes != 2 {
		t.Errorf("probes = %d, want exactly 2 (budget exhausted mid-neighbourhood)", st.Probes)
	}
}

// TestNeighboursOffGridCPUTile: M5 predictions can start the climb from
// cpu-tile values outside the Table 3 grid; the cpu-tile moves after the
// ring must still move to the adjacent grid values, or above the grid to
// its top and the doubled tile (and produce only valid configurations).
func TestNeighboursOffGridCPUTile(t *testing.T) {
	tu := &Tuner{Sys: hw.I7_2600K()}
	inst := plan.Instance{Dim: 800, TSize: 100, DSize: 1}
	cases := []struct {
		cpuTile int
		want    []int // expected cpu-tile moves after the ring
	}{
		// An off-grid start anchors at the smallest grid tile above it
		// and moves to that anchor's index neighbours.
		{3, []int{2, 8}},
		{7, []int{4, 10}},
		{11, []int{10}},
		// Above the grid: back to its top, and on to the clamped
		// doubled tile unless it clamps back.
		{20, []int{16, 40}},
		{64, []int{16}},
	}
	for _, tc := range cases {
		p := plan.Params{CPUTile: tc.cpuTile, Band: 300, GPUTile: 1, Halo: -1}
		var buf [maxMoves]plan.Params
		ns, ring := tu.neighbourhood(&buf, inst, p)
		moves := map[int]bool{}
		for i, n := range ns {
			if _, err := plan.Build(inst, n); err != nil {
				t.Errorf("cpu-tile %d: invalid move %v: %v", tc.cpuTile, n, err)
			}
			if i >= ring && n.CPUTile != tc.cpuTile {
				moves[n.CPUTile] = true
			}
		}
		if len(moves) != len(tc.want) {
			t.Errorf("cpu-tile %d: moves = %v, want %v", tc.cpuTile, moves, tc.want)
		}
		for _, w := range tc.want {
			if !moves[w] {
				t.Errorf("cpu-tile %d: missing move to %d (got %v)", tc.cpuTile, w, moves)
			}
		}
	}
}

// gateOpenTuner builds a tuner whose parallelism gate always says
// parallel and whose models pick a plain CPU-only configuration, by
// fitting the underlying models on constant targets. It lets tests
// steer Predict deterministically without a full training run.
func gateOpenTuner(sys hw.System) *Tuner {
	gate := ml.NewDataset("dim", "tsize", "dsize")
	cpu := ml.NewDataset("dim", "tsize", "dsize")
	gpu := ml.NewDataset("dim", "tsize", "dsize")
	for _, x := range [][]float64{
		{5, 0.5, 0}, {50, 5, 1}, {500, 100, 1}, {2000, 3000, 5}, {3000, 10000, 9},
	} {
		gate.Add(x, 1) // every training point says "parallelize"
		cpu.Add(x, 8)  // constant cpu-tile
		gpu.Add(x, 0)  // never employ the GPU
	}
	svm, err := ml.FitSVM(gate)
	if err != nil {
		panic(err)
	}
	return &Tuner{
		Sys:      sys,
		Parallel: svm,
		CPUTile:  ml.FitM5(cpu),
		GPUTile:  ml.FitREP(gpu),
	}
}

// TestRefineSerialFallback drives the serial-fallback branch of Refine:
// the gate (wrongly) says parallel on a tiny instance, the climb cannot
// beat the sequential baseline, so the refined decision must fall back
// to serial with FinalNs equal to the baseline.
func TestRefineSerialFallback(t *testing.T) {
	sys := hw.I7_2600K()
	tu := gateOpenTuner(sys)
	inst := plan.Instance{Dim: 10, TSize: 1, DSize: 0}
	if tu.Predict(inst).Serial {
		t.Fatal("constructed gate still predicts serial; the test needs a parallel prediction")
	}
	online := NewOnlineTuner(tu)
	pred, st, err := online.Refine(inst)
	if err != nil {
		t.Fatal(err)
	}
	if !pred.Serial {
		t.Fatalf("refined prediction = %v, want the serial fallback", pred)
	}
	serialNs := engine.SerialNs(sys, inst)
	if st.FinalNs != serialNs {
		t.Errorf("FinalNs = %v, want the serial baseline %v", st.FinalNs, serialNs)
	}
	if st.StartNs <= serialNs {
		t.Errorf("start %v should have been worse than serial %v", st.StartNs, serialNs)
	}
}

// TestRefineDecisionFromCachedSerial: refining a cached serial decision
// probes the parallel alternative against the supplied baseline without
// re-running the offline predict, and keeps whichever wins.
func TestRefineDecisionFromCachedSerial(t *testing.T) {
	tu := trainedTuner(t, hw.I7_2600K())
	online := NewOnlineTuner(tu)
	inst := plan.Instance{Dim: 20, TSize: 1, DSize: 0}
	dec := Prediction{Serial: true, Par: engine.CPUOnlyParams(8)}
	serialNs := engine.SerialNs(tu.Sys, inst)
	pred, st, err := online.RefineDecisionContext(context.Background(), inst, dec, serialNs)
	if err != nil {
		t.Fatal(err)
	}
	if st.Probes != 1 {
		t.Errorf("probes = %d, want exactly 1 (the parallel alternative)", st.Probes)
	}
	if st.StartNs != serialNs {
		t.Errorf("StartNs = %v, want the supplied baseline %v", st.StartNs, serialNs)
	}
	if pred.Serial && st.FinalNs != serialNs {
		t.Errorf("kept serial but FinalNs = %v != baseline %v", st.FinalNs, serialNs)
	}
	if !pred.Serial && st.FinalNs >= serialNs {
		t.Errorf("switched to parallel without beating the baseline: %v >= %v", st.FinalNs, serialNs)
	}
}

// TestRefineFromUnmeasurableStart: an invalid starting configuration is
// an error, not a silent no-op.
func TestRefineFromUnmeasurableStart(t *testing.T) {
	tu := trainedTuner(t, hw.I7_2600K())
	online := NewOnlineTuner(tu)
	inst := plan.Instance{Dim: 500, TSize: 100, DSize: 1}
	if _, _, err := online.refineFrom(context.Background(), inst, plan.Params{CPUTile: 0, Band: -1, GPUTile: 1, Halo: -1}, refineBudget); err == nil {
		t.Error("unbuildable start must fail")
	}
}

// TestRefineFromContextCanceled: a canceled context stops the climb at
// the next probe and surfaces the incumbent with ctx's error.
func TestRefineFromContextCanceled(t *testing.T) {
	tu := trainedTuner(t, hw.I7_2600K())
	online := NewOnlineTuner(tu)
	inst := plan.Instance{Dim: 1500, TSize: 2000, DSize: 1}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, st, err := online.refineFrom(ctx, inst, plan.Params{CPUTile: 8, Band: -1, GPUTile: 1, Halo: -1}, refineBudget)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st.Probes > 1 {
		t.Errorf("canceled refinement still probed %d times", st.Probes)
	}
}

// TestNeighboursValid: every move of a neighbourhood builds, fits the
// system's GPUs, offloads a diagonal when it uses a GPU, and differs from
// the plan and from every other move, on the QuickSpace tuner of each
// system (whose CPU-only plans also get the models' GPU move).
func TestNeighboursValid(t *testing.T) {
	inst := plan.Instance{Dim: 800, TSize: 100, DSize: 1}
	for _, sys := range hw.Systems() {
		tu := trainedTuner(t, sys)
		for _, p := range []plan.Params{
			{CPUTile: 8, Band: -1, GPUTile: 1, Halo: -1},
			{CPUTile: 4, Band: 300, GPUTile: 1, Halo: -1},
			{CPUTile: 1, Band: 500, GPUTile: 1, Halo: 20},
			{CPUTile: 16, Band: 1, GPUTile: 3, Halo: 0},
		} {
			var buf [maxMoves]plan.Params
			moves, ring := tu.neighbourhood(&buf, inst, p)
			if ring > len(moves) {
				t.Errorf("%s %v: ring %d of %d moves", sys.Name, p, ring, len(moves))
			}
			seen := map[plan.Params]bool{p: true}
			for _, n := range moves {
				if _, err := plan.Build(inst, n); err != nil {
					t.Errorf("%s: invalid move %v of %v: %v", sys.Name, n, p, err)
				}
				if n.GPUCount() > sys.MaxGPUs() || n.Band == 0 || seen[n] {
					t.Errorf("%s: move %v of %v: %d GPUs of %d, band %d, repeated %v", sys.Name, n, p, n.GPUCount(), sys.MaxGPUs(), n.Band, seen[n])
				}
				seen[n] = true
			}
		}
	}
}
