package engine

// Tests for the N-GPU extension (the paper's future work: "incorporating
// more than two GPUs"). The tuning-space encoding still distinguishes
// only 0/1/2 GPUs; wider runs are requested through Options.GPUs on a
// system widened with hw.WithGPUCount.

import (
	"testing"

	"repro/internal/hw"
	"repro/internal/kernels"
	"repro/internal/plan"
)

func wide4() hw.System { return hw.WithGPUCount(hw.I7_2600K(), 4) }

func TestSimulate4GPUsMatchesSerial(t *testing.T) {
	sys := wide4()
	dim := 64
	k := kernels.NewSynthetic(3, 1)
	want := Reference(dim, dim, k)
	for _, par := range []plan.Params{
		{CPUTile: 4, Band: 40, GPUTile: 1, Halo: 6},
		{CPUTile: 8, Band: 55, GPUTile: 1, Halo: 0},
		{CPUTile: 2, Band: 40, GPUTile: 4, Halo: 3},
	} {
		for _, n := range []int{3, 4} {
			res, g, err := Simulate(sys, plan.Instance{Dim: dim}, k, par, Options{GPUs: n})
			if err != nil {
				t.Fatalf("%v gpus=%d: %v", par, n, err)
			}
			if !g.Equal(want) {
				t.Errorf("%v gpus=%d: functional result differs from serial", par, n)
			}
			if res.RTimeNs <= 0 {
				t.Errorf("%v gpus=%d: non-positive rtime", par, n)
			}
		}
	}
}

func TestEstimateAgreesWithSimulate4GPUs(t *testing.T) {
	sys := wide4()
	dim := 72
	k := kernels.NewSynthetic(40, 1)
	inst := plan.Instance{Dim: dim, TSize: k.TSize(), DSize: k.DSize()}
	for _, n := range []int{2, 3, 4} {
		par := plan.Params{CPUTile: 8, Band: 50, GPUTile: 1, Halo: 5}
		est, err := Estimate(sys, inst, par, Options{GPUs: n})
		if err != nil {
			t.Fatal(err)
		}
		sim, _, err := Simulate(sys, plan.Instance{Dim: dim}, k, par, Options{GPUs: n})
		if err != nil {
			t.Fatal(err)
		}
		if !approxEq(est.RTimeNs, sim.RTimeNs, 1e-6) {
			t.Errorf("gpus=%d: estimate %v != simulate %v", n, est.RTimeNs, sim.RTimeNs)
		}
		if est.Kernels != sim.Kernels || est.Swaps != sim.Swaps {
			t.Errorf("gpus=%d: kernel/swap counts differ", n)
		}
	}
}

func TestMoreGPUsScaleAtCoarseGrain(t *testing.T) {
	// At very coarse granularity four devices must beat two, which must
	// beat one; swap overheads grow with device count, so the gain per
	// device shrinks.
	sys := wide4()
	inst := plan.Instance{Dim: 2700, TSize: 12000, DSize: 1}
	par := plan.Params{CPUTile: 8, Band: 2600, GPUTile: 1, Halo: 24}
	rt := func(n int) float64 {
		r, err := Estimate(sys, inst, par, Options{GPUs: n})
		if err != nil {
			t.Fatal(err)
		}
		return r.RTimeNs
	}
	two, three, four := rt(0), rt(3), rt(4)
	if !(four < three && three < two) {
		t.Errorf("scaling violated: 2 GPUs %v, 3 GPUs %v, 4 GPUs %v", two, three, four)
	}
	gain23 := two / three
	gain34 := three / four
	if gain34 >= gain23 {
		t.Errorf("marginal gain must shrink: 2->3 %.3f, 3->4 %.3f", gain23, gain34)
	}
}

func TestMoreGPUsHurtAtFineGrain(t *testing.T) {
	// At fine granularity the extra swap traffic must make four devices
	// worse than two: the trade-off does not scale for free.
	sys := wide4()
	inst := plan.Instance{Dim: 1900, TSize: 50, DSize: 5}
	par := plan.Params{CPUTile: 8, Band: 1800, GPUTile: 1, Halo: 2}
	two, err := Estimate(sys, inst, par, Options{})
	if err != nil {
		t.Fatal(err)
	}
	four, err := Estimate(sys, inst, par, Options{GPUs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if four.RTimeNs <= two.RTimeNs {
		t.Errorf("4 GPUs (%v) should lose to 2 (%v) at fine grain",
			four.RTimeNs, two.RTimeNs)
	}
}

func TestGPUWideningRequiresDevices(t *testing.T) {
	sys := hw.I7_2600K() // only two devices
	inst := plan.Instance{Dim: 500, TSize: 1000, DSize: 1}
	par := plan.Params{CPUTile: 8, Band: 400, GPUTile: 1, Halo: 5}
	if _, err := Estimate(sys, inst, par, Options{GPUs: 4}); err == nil {
		t.Error("widening past the device count must fail")
	}
	k := kernels.NewSynthetic(10, 1)
	if _, _, err := Simulate(sys, plan.Instance{Dim: 64}, k, plan.Params{CPUTile: 4, Band: 40, GPUTile: 1, Halo: 5},
		Options{GPUs: 4}); err == nil {
		t.Error("simulate widening past the device count must fail")
	}
}

func TestWideningIgnoredForSingleGPUConfigs(t *testing.T) {
	// Options.GPUs only applies to halo >= 0 configurations; single-GPU
	// and all-CPU plans are unchanged.
	sys := wide4()
	inst := plan.Instance{Dim: 700, TSize: 2000, DSize: 1}
	one := plan.Params{CPUTile: 8, Band: 600, GPUTile: 1, Halo: -1}
	a, err := Estimate(sys, inst, one, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Estimate(sys, inst, one, Options{GPUs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if a.RTimeNs != b.RTimeNs {
		t.Error("widening must not affect single-GPU plans")
	}
}

// TestEstimateBeyondFourGPUs: the launch costs and the memo of timed
// runs start on the stack for four devices and grow past them, so a
// six-device run estimates as its functional simulation runs, and a
// Sweep's replay gives Estimate's runtime bits.
func TestEstimateBeyondFourGPUs(t *testing.T) {
	sys := hw.WithGPUCount(hw.I7_2600K(), 6)
	dim := 96
	k := kernels.NewSynthetic(40, 1)
	inst := plan.Instance{Dim: dim, TSize: k.TSize(), DSize: k.DSize()}
	par := plan.Params{CPUTile: 8, Band: 70, GPUTile: 2, Halo: 5}
	opts := Options{GPUs: 6}
	est, err := Estimate(sys, inst, par, opts)
	if err != nil {
		t.Fatal(err)
	}
	sim, _, err := Simulate(sys, plan.Instance{Dim: dim}, k, par, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(est.RTimeNs, sim.RTimeNs, 1e-6) || est.Kernels != sim.Kernels {
		t.Errorf("estimate %v (%d kernels) != simulate %v (%d kernels)", est.RTimeNs, est.Kernels, sim.RTimeNs, sim.Kernels)
	}
	var sw Sweep
	sw.Reset(sys, inst, opts)
	if ns, censored, err := sw.RTime(par); err != nil || ns != est.RTimeNs || censored {
		t.Errorf("Sweep.RTime = %v, %v, %v; want %v", ns, censored, err, est.RTimeNs)
	}
}
