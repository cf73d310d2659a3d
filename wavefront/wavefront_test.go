package wavefront

import (
	"runtime"
	"testing"
	"time"
)

func TestNativeSerialVsParallel(t *testing.T) {
	k := NewSynthetic(3, 1)
	a := NewGrid(40, 1)
	RunSerial(k, a)
	b := NewGrid(40, 1)
	if _, err := RunParallel(k, b, 4, 2); err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Error("parallel result differs from serial through the public API")
	}
}

func TestRunParallelReleasesWorkers(t *testing.T) {
	// Each call owns its executor: once it returns, no worker goroutine
	// (and so no reference to the grid) may outlive it.
	k := NewSynthetic(3, 1)
	base := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		if _, err := RunParallel(k, NewGrid(40, 1), 4, 2); err != nil {
			t.Fatal(err)
		}
	}
	// Close returns once every worker has signalled its exit (its
	// deferred wg.Done), not once the goroutine is gone; give the last
	// ones up to a second to finish unwinding. Yielding alone is not
	// enough under the race detector, so the wait sleeps.
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > base && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after 20 RunParallel calls, want at most the %d before", n, base)
	}
}

func TestSimulateThroughPublicAPI(t *testing.T) {
	sys, ok := SystemByName("i7-2600K")
	if !ok {
		t.Fatal("missing system")
	}
	k := NewSeqCompare()
	dim := 50
	res, g, err := Simulate(sys, dim, k, Params{CPUTile: 4, Band: 20, GPUTile: 1, Halo: 5})
	if err != nil {
		t.Fatal(err)
	}
	want := NewGrid(dim, 0)
	RunSerial(k, want)
	if !g.Equal(want) {
		t.Error("simulated grid differs from native serial")
	}
	if res.RTimeNs <= 0 || res.Kernels == 0 {
		t.Error("implausible result")
	}
}

func TestEstimateAndBaselines(t *testing.T) {
	sys := Systems()[0]
	inst := Instance{Dim: 500, TSize: 1000, DSize: 1}
	cpu, err := Estimate(sys, inst, CPUOnly(8))
	if err != nil {
		t.Fatal(err)
	}
	gpu, err := Estimate(sys, inst, GPUOnlyFor(inst))
	if err != nil {
		t.Fatal(err)
	}
	serial := SerialSeconds(sys, inst)
	if serial <= 0 || cpu.RTimeSec() <= 0 || gpu.RTimeSec() <= 0 {
		t.Error("non-positive times")
	}
	if cpu.RTimeSec() >= serial {
		t.Error("parallel CPU must beat serial on a coarse instance")
	}
}

func TestInstanceOf(t *testing.T) {
	k := NewNash(2)
	inst := InstanceOf(700, k)
	if inst.Dim != 700 || inst.TSize != 1500 || inst.DSize != 4 {
		t.Errorf("InstanceOf wrong: %v", inst)
	}
}

func TestSearchAndTrainPublicPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("tuner pipeline covered by internal tests; skip in -short")
	}
	sys, _ := SystemByName("i3-540")
	space := Space{
		Dims:      []int{500, 1500},
		TSizes:    []float64{10, 1000, 8000},
		DSizes:    []int{1},
		CPUTiles:  []int{1, 8},
		BandFracs: []float64{-1, 0.5, 1.0},
		HaloFracs: []float64{-1},
		GPUTiles:  []int{1},
	}
	sr, err := Exhaustive(sys, space)
	if err != nil {
		t.Fatal(err)
	}
	tuner, err := Train(sr, DefaultTrainOptions())
	if err != nil {
		t.Fatal(err)
	}
	pred := tuner.Predict(Instance{Dim: 1000, TSize: 5000, DSize: 1})
	if !pred.Serial && pred.Par.CPUTile < 1 {
		t.Errorf("invalid prediction %v", pred)
	}
}

func TestKnapsackKernelThroughAPI(t *testing.T) {
	k, err := NewAppKernel("knapsack", 30, 30, nil)
	if err != nil {
		t.Fatal(err)
	}
	g := NewGrid(30, 0)
	RunSerial(k, g)
	if g.A(29, 29) <= 0 {
		t.Error("knapsack value must be positive at full capacity")
	}
}
