package engine

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/hw"
	"repro/internal/kernels"
	"repro/internal/plan"
)

func approxEq(a, b, rel float64) bool {
	if a == b {
		return true
	}
	den := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= rel*den
}

func TestEstimateCPUOnly(t *testing.T) {
	sys := hw.I7_2600K()
	inst := plan.Instance{Dim: 200, TSize: 100, DSize: 1}
	res, err := Estimate(sys, inst, CPUOnlyParams(8), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.GPUNs != 0 || res.Kernels != 0 || res.StartupNs != 0 {
		t.Error("all-CPU run must have an empty GPU phase")
	}
	if res.Phase1Ns <= 0 || res.RTimeNs != res.Phase1Ns {
		t.Errorf("all-CPU rtime %v must equal phase-1 time %v", res.RTimeNs, res.Phase1Ns)
	}
	// Parallel CPU must beat serial but not exceed the core count.
	serial := SerialNs(sys, inst)
	speedup := serial / res.RTimeNs
	if speedup < 1 || speedup > float64(sys.CPU.Cores) {
		t.Errorf("CPU-only speedup %.2f implausible", speedup)
	}
}

func TestEstimateBreakdownAdds(t *testing.T) {
	sys := hw.I7_2600K()
	inst := plan.Instance{Dim: 400, TSize: 500, DSize: 1}
	par := plan.Params{CPUTile: 8, Band: 150, GPUTile: 1, Halo: 20}
	res, err := Estimate(sys, inst, par, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(res.RTimeNs, res.Phase1Ns+res.GPUNs+res.Phase3Ns, 1e-9) {
		t.Errorf("phases %v+%v+%v != rtime %v",
			res.Phase1Ns, res.GPUNs, res.Phase3Ns, res.RTimeNs)
	}
	if res.Swaps == 0 || res.SwapNs <= 0 {
		t.Error("dual-GPU run must swap halos")
	}
	if res.RedundantPoints <= 0 {
		t.Error("positive halo must recompute points")
	}
}

func TestEstimateRejectsTooManyGPUs(t *testing.T) {
	sys := hw.I3_540() // single GPU
	inst := plan.Instance{Dim: 100, TSize: 10, DSize: 1}
	par := plan.Params{CPUTile: 4, Band: 10, GPUTile: 1, Halo: 2}
	if _, err := Estimate(sys, inst, par, Options{}); err == nil {
		t.Error("dual-GPU config on a single-GPU system must fail")
	}
}

func TestEstimateCensors(t *testing.T) {
	sys := hw.I3_540()
	inst := plan.Instance{Dim: 3100, TSize: 12000, DSize: 5}
	res, err := Estimate(sys, inst, CPUOnlyParams(1), Options{ThresholdNs: DefaultThresholdNs})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Censored {
		t.Fatal("a huge untiled serial-ish run must exceed 90s")
	}
	if res.RTimeNs != DefaultThresholdNs {
		t.Errorf("censored rtime = %v, want the threshold", res.RTimeNs)
	}
}

func TestSerialBaselineScales(t *testing.T) {
	sys := hw.I3_540()
	a := SerialNs(sys, plan.Instance{Dim: 500, TSize: 100, DSize: 1})
	b := SerialNs(sys, plan.Instance{Dim: 1000, TSize: 100, DSize: 1})
	if !approxEq(b/a, 4, 0.01) {
		t.Errorf("serial time must scale with dim²: ratio %v", b/a)
	}
}

func TestSimulateMatchesSerialReference(t *testing.T) {
	// The heart of the functional simulation: every hybrid configuration
	// must compute exactly the same grid as the serial sweep.
	sys := hw.I7_2600K()
	dim := 60
	for _, k := range []kernels.Kernel{
		kernels.NewSynthetic(3, 2),
		kernels.NewSeqCompare(),
	} {
		want := Reference(dim, dim, k)
		for _, par := range []plan.Params{
			CPUOnlyParams(4),
			GPUOnlyParamsFor(plan.Instance{Dim: dim}),
			{CPUTile: 4, Band: 20, GPUTile: 1, Halo: -1},
			{CPUTile: 8, Band: 20, GPUTile: 1, Halo: 5},
			{CPUTile: 2, Band: 30, GPUTile: 4, Halo: 0},
			{CPUTile: 5, Band: 50, GPUTile: 8, Halo: 4},
		} {
			res, g, err := Simulate(sys, plan.Instance{Dim: dim}, k, par, Options{})
			if err != nil {
				t.Fatalf("%s %v: %v", k.Name(), par, err)
			}
			if !g.Equal(want) {
				t.Errorf("%s %v: simulated grid differs from serial reference", k.Name(), par)
			}
			if res.RTimeNs <= 0 {
				t.Errorf("%s %v: non-positive rtime", k.Name(), par)
			}
		}
	}
}

func TestSimulateMatchesSerialProperty(t *testing.T) {
	// Property: random valid configurations preserve functional
	// correctness.
	sys := hw.I7_2600K()
	k := kernels.NewSynthetic(2, 1)
	dim := 40
	want := Reference(dim, dim, k)
	f := func(rawBand, rawCt, rawHalo, rawG uint8) bool {
		band := int(rawBand)%(dim+1) - 1
		ct := int(rawCt)%dim + 1
		gt := []int{1, 2, 4, 8}[rawG%4]
		halo := -1
		if band >= 0 {
			if m := plan.MaxHaloFor(plan.Instance{Dim: dim, TSize: 2, DSize: 1}, band); m >= 0 {
				halo = int(rawHalo)%(m+2) - 1
			}
		}
		par := plan.Params{CPUTile: ct, Band: band, GPUTile: gt, Halo: halo}
		_, g, err := Simulate(sys, plan.Instance{Dim: dim}, k, par, Options{})
		if err != nil {
			return false
		}
		return g.Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestEstimateAgreesWithSimulate(t *testing.T) {
	// The analytic estimator and the discrete-event simulation must report
	// the same virtual time: they share formulas and choreography.
	sys := hw.I7_2600K()
	dim := 80
	k := kernels.NewSynthetic(50, 1)
	inst := plan.Instance{Dim: dim, TSize: k.TSize(), DSize: k.DSize()}
	for _, par := range []plan.Params{
		CPUOnlyParams(8),
		GPUOnlyParamsFor(plan.Instance{Dim: dim}),
		{CPUTile: 4, Band: 30, GPUTile: 1, Halo: -1},
		{CPUTile: 8, Band: 30, GPUTile: 1, Halo: 8},
		{CPUTile: 8, Band: 30, GPUTile: 1, Halo: 0},
		{CPUTile: 2, Band: 50, GPUTile: 4, Halo: 12},
		{CPUTile: 10, Band: 70, GPUTile: 8, Halo: 3},
	} {
		est, err := Estimate(sys, inst, par, Options{})
		if err != nil {
			t.Fatalf("estimate %v: %v", par, err)
		}
		sim, _, err := Simulate(sys, plan.Instance{Dim: dim}, k, par, Options{})
		if err != nil {
			t.Fatalf("simulate %v: %v", par, err)
		}
		if !approxEq(est.RTimeNs, sim.RTimeNs, 1e-6) {
			t.Errorf("%v: estimate %v != simulate %v", par, est.RTimeNs, sim.RTimeNs)
		}
		if est.Kernels != sim.Kernels {
			t.Errorf("%v: kernel counts differ: %d vs %d", par, est.Kernels, sim.Kernels)
		}
		if est.Swaps != sim.Swaps {
			t.Errorf("%v: swap counts differ: %d vs %d", par, est.Swaps, sim.Swaps)
		}
	}
}

func TestEstimateAgreesWithSimulateOnI3(t *testing.T) {
	sys := hw.I3_540()
	dim := 70
	k := kernels.NewSynthetic(20, 5)
	inst := plan.Instance{Dim: dim, TSize: k.TSize(), DSize: k.DSize()}
	for _, par := range []plan.Params{
		{CPUTile: 4, Band: 25, GPUTile: 1, Halo: -1},
		GPUOnlyParamsFor(plan.Instance{Dim: dim}),
	} {
		est, err := Estimate(sys, inst, par, Options{})
		if err != nil {
			t.Fatal(err)
		}
		sim, _, err := Simulate(sys, plan.Instance{Dim: dim}, k, par, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !approxEq(est.RTimeNs, sim.RTimeNs, 1e-6) {
			t.Errorf("%v: estimate %v != simulate %v", par, est.RTimeNs, sim.RTimeNs)
		}
	}
}

func TestMoreGPUsHelpAtHighGranularity(t *testing.T) {
	// For a large coarse-grained instance the dual-GPU configuration must
	// beat the single GPU, which must beat the CPU (the regime where the
	// paper's heatmaps choose halo >= 0).
	sys := hw.I7_2600K()
	inst := plan.Instance{Dim: 2700, TSize: 8000, DSize: 1}
	band := inst.Dim - 100
	one, err := Estimate(sys, inst, plan.Params{CPUTile: 8, Band: band, GPUTile: 1, Halo: -1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	two, err := Estimate(sys, inst, plan.Params{CPUTile: 8, Band: band, GPUTile: 1, Halo: 40}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := Estimate(sys, inst, CPUOnlyParams(8), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !(two.RTimeNs < one.RTimeNs && one.RTimeNs < cpu.RTimeNs) {
		t.Errorf("expected 2GPU < 1GPU < CPU, got %v, %v, %v",
			two.RTimeNs, one.RTimeNs, cpu.RTimeNs)
	}
}

func TestCPUWinsAtLowGranularity(t *testing.T) {
	// Small fine-grained instances must run fastest on the CPU (the
	// paper's "slower CPU cores beat the GPU for tsize<=100, dim<=1100"
	// on i7 systems).
	sys := hw.I7_2600K()
	inst := plan.Instance{Dim: 700, TSize: 10, DSize: 1}
	cpu, _ := Estimate(sys, inst, CPUOnlyParams(8), Options{})
	gpu, _ := Estimate(sys, inst, GPUOnlyParamsFor(inst), Options{})
	if cpu.RTimeNs >= gpu.RTimeNs {
		t.Errorf("CPU (%v) must beat GPU (%v) on small fine instances",
			cpu.RTimeNs, gpu.RTimeNs)
	}
}

func TestHaloTradeoffHasInterior(t *testing.T) {
	// Halo 0 maximizes swaps; max halo maximizes redundant compute. For a
	// coarse instance some middle halo must beat halo=0: the trade-off the
	// paper tunes.
	sys := hw.I7_2600K()
	inst := plan.Instance{Dim: 1900, TSize: 2000, DSize: 1}
	band := inst.Dim - 100
	rt := func(h int) float64 {
		r, err := Estimate(sys, inst, plan.Params{CPUTile: 8, Band: band, GPUTile: 1, Halo: h}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return r.RTimeNs
	}
	zero := rt(0)
	mid := rt(32)
	if mid >= zero {
		t.Errorf("halo=32 (%v) must beat halo=0 (%v) at coarse granularity", mid, zero)
	}
}

func TestGPUTilingHurtsAtHighGranularity(t *testing.T) {
	// Section 4.1.1: tiling inside the GPU only pays when kernel launches
	// dominate; with computation dominating it must lose.
	sys := hw.I3_540()
	inst := plan.Instance{Dim: 1900, TSize: 4000, DSize: 1}
	flat, _ := Estimate(sys, inst, plan.Params{CPUTile: 8, Band: 1898, GPUTile: 1, Halo: -1}, Options{})
	tiled, _ := Estimate(sys, inst, plan.Params{CPUTile: 8, Band: 1898, GPUTile: 8, Halo: -1}, Options{})
	if tiled.RTimeNs <= flat.RTimeNs {
		t.Errorf("gpu-tile must hurt at tsize=4000: tiled %v vs flat %v",
			tiled.RTimeNs, flat.RTimeNs)
	}
	// And help when launches dominate (tiny tsize).
	instSmall := plan.Instance{Dim: 1900, TSize: 10, DSize: 1}
	flatS, _ := Estimate(sys, instSmall, plan.Params{CPUTile: 8, Band: 1898, GPUTile: 1, Halo: -1}, Options{})
	tiledS, _ := Estimate(sys, instSmall, plan.Params{CPUTile: 8, Band: 1898, GPUTile: 8, Halo: -1}, Options{})
	if tiledS.RTimeNs >= flatS.RTimeNs {
		t.Errorf("gpu-tile must help at tsize=10: tiled %v vs flat %v",
			tiledS.RTimeNs, flatS.RTimeNs)
	}
}

func TestRTimeSec(t *testing.T) {
	r := Result{RTimeNs: 2.5e9}
	if r.RTimeSec() != 2.5 {
		t.Errorf("RTimeSec = %v, want 2.5", r.RTimeSec())
	}
}

func TestEstimateMonotoneInTsize(t *testing.T) {
	// Property: for a fixed configuration, runtime grows with granularity.
	sys := hw.I7_3820()
	f := func(rawA, rawB uint16) bool {
		a := float64(rawA%12000) + 1
		b := float64(rawB%12000) + 1
		if a > b {
			a, b = b, a
		}
		par := plan.Params{CPUTile: 8, Band: 100, GPUTile: 1, Halo: 10}
		ra, err1 := Estimate(sys, plan.Instance{Dim: 500, TSize: a, DSize: 1}, par, Options{})
		rb, err2 := Estimate(sys, plan.Instance{Dim: 500, TSize: b, DSize: 1}, par, Options{})
		return err1 == nil && err2 == nil && ra.RTimeNs <= rb.RTimeNs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestSimulateCollectsTrace(t *testing.T) {
	sys := hw.I7_2600K()
	k := kernels.NewSynthetic(5, 1)
	par := plan.Params{CPUTile: 4, Band: 30, GPUTile: 1, Halo: 4}
	res, _, err := Simulate(sys, plan.Instance{Dim: 60}, k, par, Options{CollectTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil || len(res.Trace.Spans) == 0 {
		t.Fatal("trace not collected")
	}
	// The trace must span the whole run and include both devices + host.
	_, end := res.Trace.Span()
	if end != res.RTimeNs {
		t.Errorf("trace ends at %v, run at %v", end, res.RTimeNs)
	}
	for _, dev := range []int{-1, 0, 1} {
		if res.Trace.Busy(dev) <= 0 {
			t.Errorf("lane %d idle in trace", dev)
		}
	}
	// Without the option there is no trace.
	res2, _, err := Simulate(sys, plan.Instance{Dim: 60}, k, par, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Trace != nil {
		t.Error("trace collected without the option")
	}
}

func TestEstimateAllocationFree(t *testing.T) {
	// Served misses, jobs and refine probes estimate one point at a time,
	// so the live walk of the GPU phase must not allocate: the returned
	// plan is the only allocation. The first case is BenchmarkEstimateHybrid's dual-GPU
	// configuration.
	for _, c := range []struct {
		sys  hw.System
		inst plan.Instance
		par  plan.Params
		opts Options
	}{
		{hw.I7_2600K(), plan.Instance{Dim: 1900, TSize: 2000, DSize: 1},
			plan.Params{CPUTile: 8, Band: 1500, GPUTile: 1, Halo: 20}, Options{}},
		{hw.WithGPUCount(hw.I7_2600K(), 4), plan.Instance{Dim: 1100, TSize: 500, DSize: 3},
			plan.Params{CPUTile: 4, Band: 900, GPUTile: 8, Halo: 6}, Options{GPUs: 4}},
		{hw.I3_540(), plan.Instance{Rows: 600, Cols: 1400, TSize: 100, DSize: 1, LiveCells: 400000},
			plan.Params{CPUTile: 8, Band: 700, GPUTile: 4, Halo: -1}, Options{ThresholdNs: DefaultThresholdNs}},
	} {
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := Estimate(c.sys, c.inst, c.par, c.opts); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 2 {
			t.Errorf("%v %v: Estimate makes %v allocations per call, want <= 2", c.inst, c.par, allocs)
		}
	}
}

func TestSwapSchedule(t *testing.T) {
	// Two GPUs exchange halos once per period of max(halo, 1) offloaded
	// diagonals, with no swap after the last period.
	sys := hw.I7_2600K()
	inst := plan.Instance{Dim: 100, TSize: 10, DSize: 1}
	swaps := func(inst plan.Instance, band, halo int) (period, n int) {
		r, err := Estimate(sys, inst, plan.Params{CPUTile: 4, Band: band, GPUTile: 1, Halo: halo}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return r.Plan.SwapPeriod(), r.Swaps
	}
	// 21 offloaded diagonals, halo 5 -> ceil(21/5)=5 periods, 4 swaps.
	if period, n := swaps(inst, 10, 5); period != 5 || n != 4 {
		t.Errorf("halo=5: period=%d swaps=%d, want 5/4", period, n)
	}
	// Halo 0 still swaps every diagonal.
	if period, n := swaps(inst, 10, 0); period != 1 || n != 20 {
		t.Errorf("halo=0: period=%d swaps=%d, want 1/20", period, n)
	}
	// A single GPU never swaps.
	if _, n := swaps(inst, 10, -1); n != 0 {
		t.Errorf("single GPU swapped %d times", n)
	}
	// Larger halos swap less often.
	big := plan.Instance{Dim: 200, TSize: 10, DSize: 1}
	_, small := swaps(big, 50, 2)
	_, large := swaps(big, 50, 20)
	if small <= large {
		t.Errorf("halo=2 swaps %d times, halo=20 %d: smaller halo must swap more often", small, large)
	}
}
