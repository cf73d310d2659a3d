package engine

import (
	"testing"

	"repro/internal/hw"
	"repro/internal/kernels"
	"repro/internal/plan"
)

// TestLiveCellScaling: a masked instance must be charged only for its
// live fraction — roughly half the dense runtime for the Nussinov
// triangle — in both the serial baseline and the hybrid estimate.
func TestLiveCellScaling(t *testing.T) {
	sys := hw.I7_2600K()
	n := 120
	dense := plan.Instance{Dim: n, TSize: kernels.NussinovTSize, DSize: 0}
	masked := dense
	masked.LiveCells = n * (n + 1) / 2

	if s, d := SerialNs(sys, masked), SerialNs(sys, dense); !approxEq(s, d*masked.LiveFrac(), 1e-9) {
		t.Errorf("SerialNs masked %v != dense %v x live fraction %v", s, d, masked.LiveFrac())
	}
	for _, par := range []plan.Params{
		CPUOnlyParams(8),
		{CPUTile: 8, Band: 40, GPUTile: 2, Halo: -1},
		{CPUTile: 4, Band: 30, GPUTile: 1, Halo: 6},
	} {
		est, err := Estimate(sys, masked, par, Options{})
		if err != nil {
			t.Fatalf("masked estimate %v: %v", par, err)
		}
		full, err := Estimate(sys, dense, par, Options{})
		if err != nil {
			t.Fatalf("dense estimate %v: %v", par, err)
		}
		if est.RTimeNs >= full.RTimeNs {
			t.Errorf("%v: masked runtime %v not below dense %v", par, est.RTimeNs, full.RTimeNs)
		}
		// Launch/startup/barrier overheads don't scale, so the ratio sits
		// between the live fraction and 1.
		if est.RTimeNs < full.RTimeNs*masked.LiveFrac()*0.9 {
			t.Errorf("%v: masked runtime %v implausibly below live-scaled dense %v",
				par, est.RTimeNs, full.RTimeNs*masked.LiveFrac())
		}
	}
}

// TestMaskedEstimateAgreesWithSimulate: the analytic and functional
// paths must stay in lockstep for masked instances too — both scale the
// same schedule by the same live fraction.
func TestMaskedEstimateAgreesWithSimulate(t *testing.T) {
	sys := hw.I7_2600K()
	n := 60
	k := kernels.NewNussinov(-1)
	inst := plan.Instance{Dim: n, TSize: k.TSize(), DSize: k.DSize(), LiveCells: n * (n + 1) / 2}
	for _, par := range []plan.Params{
		CPUOnlyParams(8),
		{CPUTile: 4, Band: 20, GPUTile: 1, Halo: -1},
		{CPUTile: 8, Band: 25, GPUTile: 4, Halo: 5},
	} {
		est, err := Estimate(sys, inst, par, Options{})
		if err != nil {
			t.Fatalf("estimate %v: %v", par, err)
		}
		sim, g, err := Simulate(sys, inst, k, par, Options{})
		if err != nil {
			t.Fatalf("simulate %v: %v", par, err)
		}
		if !approxEq(est.RTimeNs, sim.RTimeNs, 1e-6) {
			t.Errorf("%v: estimate %v != simulate %v", par, est.RTimeNs, sim.RTimeNs)
		}
		if est.FrontierSteps != sim.FrontierSteps {
			t.Errorf("%v: frontier steps differ: %d vs %d", par, est.FrontierSteps, sim.FrontierSteps)
		}
		if !g.Equal(Reference(n, n, k)) {
			t.Errorf("%v: masked simulation differs from serial reference", par)
		}
	}
}

// TestFrontierStepsAccounting: the modeled schedule sweeps the diagonal
// frontier, so its step count is the diagonal count — and the measuring
// entry point surfaces it (1 for the barrier-free serial sweep).
func TestFrontierStepsAccounting(t *testing.T) {
	sys := hw.I7_2600K()
	inst := plan.Instance{Rows: 40, Cols: 70, TSize: 3, DSize: 1}
	res, err := Estimate(sys, inst, CPUOnlyParams(8), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.FrontierSteps != inst.NumDiags() {
		t.Errorf("FrontierSteps = %d, want %d", res.FrontierSteps, inst.NumDiags())
	}
	ns, steps, err := MeasureStepsNs(sys, inst, false, CPUOnlyParams(8))
	if err != nil || ns <= 0 {
		t.Fatalf("MeasureStepsNs: ns=%v err=%v", ns, err)
	}
	if steps != inst.NumDiags() {
		t.Errorf("measured steps = %d, want %d", steps, inst.NumDiags())
	}
	_, steps, err = MeasureStepsNs(sys, inst, true, plan.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if steps != 1 {
		t.Errorf("serial steps = %d, want 1", steps)
	}
}
