package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/hw"
	"repro/internal/plan"
)

// sameResult reports whether two estimates agree in every field, plan
// contents included. Formatting with %#v distinguishes every float bit
// pattern that an == comparison would merge (-0 and 0).
func sameResult(a, b Result) bool {
	if (a.Plan == nil) != (b.Plan == nil) || a.Plan != nil && *a.Plan != *b.Plan {
		return false
	}
	a.Plan, b.Plan = nil, nil
	return fmt.Sprintf("%#v", a) == fmt.Sprintf("%#v", b)
}

// sameRTime reports whether a Sweep's RTime output is want's runtime and
// censoring, bit for bit.
func sameRTime(ns float64, censored bool, want Result) bool {
	return fmt.Sprintf("%#v %v", ns, censored) == fmt.Sprintf("%#v %v", want.RTimeNs, want.Censored)
}

// censorPoint names where a run was cut off, read from its breakdown.
func censorPoint(r Result) string {
	switch {
	case !r.Censored:
		return "none"
	case r.Phase3Ns > 0:
		return "phase 3"
	case r.GPUNs > 0:
		return "after output transfer"
	case r.Kernels > 0:
		return "mid GPU phase"
	default:
		return "phase 1"
	}
}

// outXferNs is the GPU phase's total output transfer time under par.
func outXferNs(t *testing.T, sys hw.System, inst plan.Instance, par plan.Params, opts Options) float64 {
	pl, err := plan.Build(inst, par)
	if err != nil {
		t.Fatal(err)
	}
	sch, ok := buildGPUSchedule(pl, opts.GPUs)
	if !ok {
		return 0
	}
	ns := 0.0
	for dev := 0; dev < sch.nGPU; dev++ {
		ns += sys.Link.XferNs(sch.xferOut(dev))
	}
	return ns
}

// TestSweepMatchesEstimate compares a Sweep's RTime with single-point
// Estimate's runtime and censoring on random instances and
// configurations. Configurations share GPU schedules across cpu-tiles so
// replays run, and the thresholds are aimed at every point where a run
// can be censored.
func TestSweepMatchesEstimate(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	wide := hw.WithGPUCount(hw.I7_2600K(), 4)
	systems := []struct {
		sys  hw.System
		gpus int
	}{
		{hw.I7_2600K(), 0}, {hw.I3_540(), 0}, {wide, 3}, {wide, 4},
	}
	censors := map[string]int{}
	var sw Sweep // reused across every instance, as a search worker does
	compared := 0
	for trial := 0; trial < 24; trial++ {
		s := systems[trial%len(systems)]
		rows, cols := 50+rng.Intn(700), 50+rng.Intn(700)
		inst := plan.Instance{
			TSize: []float64{10, 100, 1000, 4000}[rng.Intn(4)],
			DSize: []int{1, 3, 5}[rng.Intn(3)],
		}
		switch trial / len(systems) % 3 {
		case 0:
			inst.Dim = rows
		case 1:
			inst.Rows, inst.Cols = rows, cols
		default:
			inst.Rows, inst.Cols = rows, cols
			inst.LiveCells = 1 + rng.Intn(rows*cols)
		}
		// A few GPU schedules, each crossed with several cpu-tiles.
		var configs []plan.Params
		for k := 0; k < 6; k++ {
			band := rng.Intn(inst.MaxUsefulBand()+2) - 1
			halo := -1
			if s.sys.MaxGPUs() >= 2 && band >= 0 && rng.Intn(3) > 0 {
				halo = rng.Intn(plan.MaxHaloFor(inst, band) + 1)
			}
			gt := []int{1, 4, 8, 25}[rng.Intn(4)]
			for _, ct := range []int{1, 3, 8} {
				configs = append(configs, plan.Params{CPUTile: ct, Band: band, GPUTile: gt, Halo: halo})
			}
		}
		// Thresholds aimed inside each phase of some configurations' runs,
		// plus no threshold at all.
		thresholds := []float64{0}
		for _, par := range configs[:6] {
			opts := Options{GPUs: s.gpus}
			r, err := Estimate(s.sys, inst, par, opts)
			if err != nil {
				t.Fatal(err)
			}
			gpuEnd := r.Phase1Ns + r.GPUNs
			thresholds = append(thresholds,
				r.Phase1Ns/2,
				r.Phase1Ns+r.GPUNs/2,
				gpuEnd-outXferNs(t, s.sys, inst, par, opts)/2,
				gpuEnd+r.Phase3Ns/2,
				r.RTimeNs*rng.Float64())
		}
		for _, th := range thresholds {
			opts := Options{ThresholdNs: th, GPUs: s.gpus}
			sw.Reset(s.sys, inst, opts)
			for _, par := range configs {
				want, err := Estimate(s.sys, inst, par, opts)
				if err != nil {
					t.Fatal(err)
				}
				ns, censored, err := sw.RTime(par)
				if err != nil {
					t.Fatal(err)
				}
				if !sameRTime(ns, censored, want) {
					t.Fatalf("%v %v %+v: RTime %v censored=%v, Estimate %v censored=%v",
						inst, par, opts, ns, censored, want.RTimeNs, want.Censored)
				}
				censors[censorPoint(want)]++
				compared++
			}
		}
	}
	for _, p := range []string{"none", "phase 1", "mid GPU phase", "after output transfer", "phase 3"} {
		if censors[p] == 0 {
			t.Errorf("no run censored at %q (%d compared: %v)", p, compared, censors)
		}
	}
}

// TestSweepErrorsMatchEstimate: configurations Estimate rejects are
// rejected by a Sweep with the same message.
func TestSweepErrorsMatchEstimate(t *testing.T) {
	inst := plan.Instance{Dim: 300, TSize: 100, DSize: 1}
	for _, c := range []struct {
		sys  hw.System
		par  plan.Params
		opts Options
	}{
		{hw.I3_540(), plan.Params{CPUTile: 4, Band: 100, GPUTile: 1, Halo: 3}, Options{}},
		{hw.I7_2600K(), plan.Params{CPUTile: 0, Band: 100, GPUTile: 1, Halo: -1}, Options{}},
		{hw.I7_2600K(), plan.Params{CPUTile: 4, Band: 100, GPUTile: 1, Halo: 3}, Options{GPUs: 4}},
	} {
		_, want := Estimate(c.sys, inst, c.par, c.opts)
		var sw Sweep
		sw.Reset(c.sys, inst, c.opts)
		_, _, got := sw.RTime(c.par)
		if want == nil || got == nil || got.Error() != want.Error() {
			t.Errorf("%v %+v: sweep error %v, Estimate error %v", c.par, c.opts, got, want)
		}
	}
}

// TestSweepAcrossResets drives one Sweep through a sequence of bindings
// that keep, change and restore the shape tape's key, comparing every
// configuration's RTime with Estimate's runtime and censoring. Shape
// tapes must survive a Reset that keeps the shape (only tsize or dsize
// change) and be dropped on any change the tapes depend on: the shape, a
// masked live fraction, Options.GPUs, or the devices of a system that
// keeps its name.
func TestSweepAcrossResets(t *testing.T) {
	i7 := hw.I7_2600K()
	wide := hw.WithGPUCount(i7, 4)
	if wide.Name != i7.Name {
		t.Fatalf("WithGPUCount renamed %q to %q", i7.Name, wide.Name)
	}
	rect := func(ts float64, ds int) plan.Instance {
		return plan.Instance{Rows: 300, Cols: 420, TSize: ts, DSize: ds}
	}
	masked := rect(100, 1)
	masked.LiveCells = 300 * 420 / 2
	steps := []struct {
		name string
		sys  hw.System
		inst plan.Instance
		gpus int
		keep bool // the previous step's shape tapes must be kept
	}{
		{"first binding", i7, rect(100, 1), 0, false},
		{"new tsize and dsize", i7, rect(4000, 5), 0, true},
		{"new tsize", i7, rect(10, 5), 0, true},
		{"new shape", i7, plan.Instance{Dim: 360, TSize: 10, DSize: 5}, 0, false},
		{"shape back", i7, rect(1000, 3), 0, false},
		{"wider system, same name", wide, rect(1000, 3), 0, false},
		{"three GPUs", wide, rect(1000, 3), 3, false},
		{"four GPUs", wide, rect(12000, 1), 4, false},
		{"four GPUs, new dsize", wide, rect(12000, 3), 4, true},
		{"two-GPU system again", i7, rect(12000, 3), 0, false},
		{"masked", i7, masked, 0, false},
		{"masked, new tsize", i7, plan.Instance{Rows: 300, Cols: 420, TSize: 50, DSize: 1, LiveCells: masked.LiveCells}, 0, true},
		{"dense again", i7, rect(50, 1), 0, false},
	}
	var sw Sweep
	for _, st := range steps {
		// A spread of GPU schedules (single and multi-GPU, halo 0, whose
		// periods repeat, up to the largest halo), each at two cpu-tiles.
		var configs []plan.Params
		maxBand := st.inst.MaxUsefulBand()
		for _, band := range []int{-1, 0, maxBand / 4, maxBand / 2, maxBand} {
			maxHalo := plan.MaxHaloFor(st.inst, band)
			for _, halo := range []int{-1, 0, 1, maxHalo / 3, maxHalo} {
				for _, gt := range []int{1, 8, 25} {
					for _, ct := range []int{1, 4} {
						configs = append(configs, plan.Params{CPUTile: ct, Band: band, GPUTile: gt, Halo: halo})
					}
				}
			}
		}
		opts := Options{GPUs: st.gpus}
		kept := len(sw.shapes)
		sw.Reset(st.sys, st.inst, opts)
		if got := len(sw.shapes); st.keep && (got != kept || got == 0) || !st.keep && got != 0 {
			t.Errorf("%s: %d shape tapes after Reset, had %d, keep=%v", st.name, got, kept, st.keep)
		}
		for _, par := range configs {
			if plan.Check(st.inst, par) != nil {
				continue
			}
			want, err := Estimate(st.sys, st.inst, par, opts)
			if err != nil {
				t.Fatal(err)
			}
			ns, censored, err := sw.RTime(par)
			if err != nil {
				t.Fatal(err)
			}
			if !sameRTime(ns, censored, want) {
				t.Fatalf("%s: %v %v: RTime %v censored=%v, Estimate %v censored=%v",
					st.name, st.inst, par, ns, censored, want.RTimeNs, want.Censored)
			}
		}
	}
}

// TestSweepRTimeAllocationFree: once a Sweep has the tapes of an
// instance's schedule, the search's time-only call allocates nothing but
// the plan that prepare builds.
func TestSweepRTimeAllocationFree(t *testing.T) {
	for _, c := range []struct {
		sys  hw.System
		inst plan.Instance
		par  plan.Params
		opts Options
	}{
		{hw.I7_2600K(), plan.Instance{Dim: 2700, TSize: 1000, DSize: 1},
			plan.Params{CPUTile: 8, Band: 1900, GPUTile: 1, Halo: 0}, Options{ThresholdNs: DefaultThresholdNs}},
		{hw.WithGPUCount(hw.I7_2600K(), 4), plan.Instance{Dim: 1100, TSize: 500, DSize: 3},
			plan.Params{CPUTile: 4, Band: 900, GPUTile: 8, Halo: 6}, Options{GPUs: 4}},
		{hw.I3_540(), plan.Instance{Rows: 600, Cols: 1400, TSize: 100, DSize: 1, LiveCells: 400000},
			plan.Params{CPUTile: 8, Band: 700, GPUTile: 4, Halo: -1}, Options{ThresholdNs: DefaultThresholdNs}},
	} {
		var sw Sweep
		sw.Reset(c.sys, c.inst, c.opts)
		if _, _, err := sw.RTime(c.par); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, _, err := sw.RTime(c.par); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 1 {
			t.Errorf("%v %v: RTime makes %v allocations per call, want <= 1", c.inst, c.par, allocs)
		}
	}
}
