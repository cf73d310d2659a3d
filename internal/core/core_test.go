package core

import (
	"slices"
	"testing"

	"repro/internal/engine"
	"repro/internal/hw"
	"repro/internal/plan"
)

// tinySpace keeps unit-test searches fast.
func tinySpace() Space {
	return Space{
		Dims:      []int{300, 700, 1500},
		TSizes:    []float64{10, 200, 3000},
		DSizes:    []int{1, 5},
		CPUTiles:  []int{1, 8},
		BandFracs: []float64{-1, 0.5, 1.0},
		HaloFracs: []float64{-1, 0, 1.0},
		GPUTiles:  []int{1, 8},
	}
}

func TestSpaceInstances(t *testing.T) {
	s := tinySpace()
	insts := s.Instances()
	if len(insts) != 3*3*2 {
		t.Fatalf("instances = %d, want 18", len(insts))
	}
	if insts[0].Dim != 300 || insts[0].TSize != 10 || insts[0].DSize != 1 {
		t.Errorf("first instance wrong: %v", insts[0])
	}
}

func TestConfigsValidAndDeduped(t *testing.T) {
	s := tinySpace()
	sys := hw.I7_2600K()
	inst := plan.Instance{Dim: 700, TSize: 200, DSize: 1}
	cfgs := s.Configs(inst, sys)
	seen := map[plan.Params]bool{}
	for _, p := range cfgs {
		if seen[p] {
			t.Fatalf("duplicate config %v", p)
		}
		seen[p] = true
		if _, err := plan.Build(inst, p); err != nil {
			t.Fatalf("invalid config emitted: %v (%v)", p, err)
		}
	}
	// All-CPU appears exactly once per cpu-tile.
	allCPU := 0
	for _, p := range cfgs {
		if p.Band == -1 {
			allCPU++
		}
	}
	if allCPU != len(s.CPUTiles) {
		t.Errorf("all-CPU configs = %d, want %d", allCPU, len(s.CPUTiles))
	}
}

func TestConfigsRespectSingleGPUSystem(t *testing.T) {
	s := tinySpace()
	inst := plan.Instance{Dim: 700, TSize: 200, DSize: 1}
	for _, p := range s.Configs(inst, hw.I3_540()) {
		if p.GPUCount() > 1 {
			t.Fatalf("dual-GPU config %v emitted for single-GPU system", p)
		}
	}
	// The dual-GPU system must get strictly more configurations.
	if len(s.Configs(inst, hw.I3_540())) >= len(s.Configs(inst, hw.I7_2600K())) {
		t.Error("dual-GPU system must have a larger space")
	}
}

func TestDefaultSpaceMatchesTable3(t *testing.T) {
	s := DefaultSpace()
	if s.Dims[0] != 500 || s.Dims[len(s.Dims)-1] != 3100 {
		t.Error("dim range must span 500..3100")
	}
	if s.TSizes[0] != 10 || s.TSizes[len(s.TSizes)-1] != 12000 {
		t.Error("tsize range must span 10..12000")
	}
	if len(s.DSizes) != 3 {
		t.Error("dsize must be {1,3,5}")
	}
	want := []int{1, 4, 8, 11, 16, 21, 25}
	if len(s.GPUTiles) != len(want) {
		t.Fatalf("gpu-tiles = %v, want %v", s.GPUTiles, want)
	}
	for i, g := range want {
		if s.GPUTiles[i] != g {
			t.Fatalf("gpu-tiles = %v, want %v", s.GPUTiles, want)
		}
	}
}

func TestExhaustiveSearch(t *testing.T) {
	sys := hw.I7_2600K()
	sr, err := Exhaustive(sys, tinySpace(), SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Instances) != 18 {
		t.Fatalf("instance results = %d, want 18", len(sr.Instances))
	}
	if sr.Evaluations() == 0 {
		t.Fatal("no evaluations recorded")
	}
	for i := range sr.Instances {
		ir := &sr.Instances[i]
		if ir.SerialNs <= 0 {
			t.Fatalf("missing serial baseline for %v", ir.Inst)
		}
		best, ok := ir.Best()
		if !ok {
			continue
		}
		for _, p := range ir.Points {
			if !p.Censored && p.RTimeNs < best.RTimeNs {
				t.Fatalf("Best() missed a faster point for %v", ir.Inst)
			}
		}
	}
}

func TestExhaustiveDeterministic(t *testing.T) {
	sys := hw.I3_540()
	s := tinySpace()
	a, err := Exhaustive(sys, s, SearchOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Exhaustive(sys, s, SearchOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if a.Evaluations() != b.Evaluations() {
		t.Fatal("evaluation counts differ across worker counts")
	}
	for i := range a.Instances {
		pa, pb := a.Instances[i].Points, b.Instances[i].Points
		for j := range pa {
			if pa[j] != pb[j] {
				t.Fatalf("point %d/%d differs across parallel runs", i, j)
			}
		}
	}
}

func TestTopKSortedAndCensorExcluded(t *testing.T) {
	ir := InstanceResult{Inst: plan.Instance{Dim: 10, TSize: 1, DSize: 0}}
	ir.Points = []Point{
		{RTimeNs: 5}, {RTimeNs: 3, Censored: true}, {RTimeNs: 9}, {RTimeNs: 1}, {RTimeNs: 7},
	}
	top := ir.TopK(3)
	if len(top) != 3 || top[0].RTimeNs != 1 || top[1].RTimeNs != 5 || top[2].RTimeNs != 7 {
		t.Fatalf("TopK wrong: %v", top)
	}
	if len(ir.Uncensored()) != 4 {
		t.Error("Uncensored must exclude censored points")
	}
}

func TestBuildTrainingShapes(t *testing.T) {
	sys := hw.I7_2600K()
	sr, err := Exhaustive(sys, tinySpace(), SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := BuildTraining(sr, DefaultTrainOptions())
	if err != nil {
		t.Fatal(err)
	}
	if tr.Parallel.Len() == 0 {
		t.Fatal("no SVM rows")
	}
	// Band reads the instance features and the gpu-tile; halo reads the
	// instance features only.
	if tr.Band.Features() != 4 || tr.Halo.Features() != 3 {
		t.Errorf("band/halo read %d/%d features, want 4/3", tr.Band.Features(), tr.Halo.Features())
	}
	// Every parallel-beneficial sampled instance contributes between one
	// and TopK rows (the quality window may drop laggards).
	if tr.CPUTile.Len() == 0 || tr.CPUTile.Len() != tr.GPUTile.Len() {
		t.Errorf("cpu-tile/gpu-tile rows %d/%d, want equal and nonzero", tr.CPUTile.Len(), tr.GPUTile.Len())
	}
	// Band and halo learn only from the GPU-using points, one row each.
	gpuRows := 0
	for _, y := range tr.GPUTile.Y {
		if y >= 1 {
			gpuRows++
		}
	}
	if gpuRows == 0 || tr.Band.Len() != gpuRows || tr.Halo.Len() != gpuRows {
		t.Errorf("band/halo rows %d/%d, want %d (the GPU-using gpu-tile rows)", tr.Band.Len(), tr.Halo.Len(), gpuRows)
	}
	if gpuRows == tr.GPUTile.Len() {
		t.Error("no all-CPU point in the top-K rows: the filter is untested")
	}
	// Band row i and halo row i teach the same point.
	for i, x := range tr.Band.X {
		if x[3] == 0 || tr.Band.Y[i] == -1 {
			t.Errorf("band row %d teaches an all-CPU point: gputile %v, band_frac %v", i, x[3], tr.Band.Y[i])
		}
		if i < tr.Halo.Len() && !slices.Equal(tr.Halo.X[i], x[:3]) {
			t.Errorf("halo row %d reads %v, band row %d %v", i, tr.Halo.X[i], i, x)
		}
	}
}

func TestTrainAndPredictPipeline(t *testing.T) {
	sys := hw.I7_2600K()
	sr, err := Exhaustive(sys, tinySpace(), SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tuner, err := Train(sr, DefaultTrainOptions())
	if err != nil {
		t.Fatal(err)
	}
	if tuner.Report.MinAccuracy() < 0 {
		t.Fatal("missing accuracy report")
	}
	// Predictions must be valid for arbitrary unseen instances.
	for _, inst := range []plan.Instance{
		{Dim: 523, TSize: 17, DSize: 2},
		{Dim: 1234, TSize: 900, DSize: 1},
		{Dim: 2048, TSize: 11000, DSize: 5},
		{Dim: 700, TSize: 0.5, DSize: 0}, // sequence-comparison-like
	} {
		pred := tuner.Predict(inst)
		if pred.Serial {
			continue
		}
		if _, err := plan.Build(inst, pred.Par); err != nil {
			t.Errorf("invalid prediction for %v: %v (%v)", inst, pred.Par, err)
		}
		if pred.Par.GPUCount() > sys.MaxGPUs() {
			t.Errorf("prediction for %v wants too many GPUs", inst)
		}
		if _, err := engine.Estimate(sys, inst, pred.Par, engine.Options{}); err != nil {
			t.Errorf("estimating the prediction failed: %v", err)
		}
	}
}

func TestPredictCoarseLargeUsesGPU(t *testing.T) {
	// After training on a space where coarse large instances favour the
	// GPU, the tuner must offload them and keep tiny fine instances on
	// the CPU.
	sys := hw.I7_2600K()
	sr, err := Exhaustive(sys, QuickSpace(), SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tuner, err := Train(sr, DefaultTrainOptions())
	if err != nil {
		t.Fatal(err)
	}
	coarse := tuner.Predict(plan.Instance{Dim: 2700, TSize: 8000, DSize: 1})
	if coarse.Serial || coarse.Par.Band < 0 {
		t.Errorf("coarse large instance not offloaded: %v", coarse)
	}
	fine := tuner.Predict(plan.Instance{Dim: 700, TSize: 10, DSize: 1})
	if !fine.Serial && fine.Par.Band >= 0 {
		t.Errorf("tiny fine instance offloaded: %v", fine)
	}
}

func TestEvaluateEfficiency(t *testing.T) {
	sys := hw.I3_540()
	sr, err := Exhaustive(sys, QuickSpace(), SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tuner, err := Train(sr, DefaultTrainOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Nash-like instances (the paper's Figure 10 protocol).
	insts := []plan.Instance{
		{Dim: 700, TSize: 750, DSize: 4},
		{Dim: 1900, TSize: 1500, DSize: 4},
	}
	points, err := Evaluate(tuner, QuickSpace(), insts)
	if err != nil {
		t.Fatal(err)
	}
	eff := MeanEfficiency(points)
	if eff < 0.5 {
		t.Errorf("tuner efficiency %v unreasonably low", eff)
	}
	for _, e := range points {
		if e.BestSpeedup() <= 0 && !e.AllCensored {
			t.Error("missing exhaustive optimum")
		}
	}
}

func TestPredictionString(t *testing.T) {
	if (Prediction{Serial: true}).String() != "serial" {
		t.Error("serial prediction string wrong")
	}
	p := Prediction{Par: plan.Params{CPUTile: 4, Band: -1, GPUTile: 1, Halo: -1}}
	if p.String() == "" {
		t.Error("empty params string")
	}
}
