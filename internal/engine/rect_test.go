package engine

import (
	"testing"

	"repro/internal/grid"
	"repro/internal/hw"
	"repro/internal/kernels"
	"repro/internal/plan"
)

func rectInstance(rows, cols int, k kernels.Kernel) plan.Instance {
	return plan.Instance{Rows: rows, Cols: cols, TSize: k.TSize(), DSize: k.DSize()}
}

func TestEstimateRectangularInstance(t *testing.T) {
	// The analytic estimator must accept rows != cols and account for
	// every cell across the three phases.
	sys := hw.I7_2600K()
	k := kernels.NewSynthetic(100, 1)
	inst := rectInstance(300, 900, k)
	rows, cols := inst.Shape()
	for _, par := range []plan.Params{
		CPUOnlyParams(8),
		{CPUTile: 4, Band: 100, GPUTile: 1, Halo: -1},
		{CPUTile: 4, Band: 200, GPUTile: 8, Halo: 10},
		GPUOnlyParamsFor(inst),
	} {
		res, err := Estimate(sys, inst, par, Options{})
		if err != nil {
			t.Fatalf("%v: %v", par, err)
		}
		if res.RTimeNs <= 0 {
			t.Errorf("%v: non-positive runtime", par)
		}
		pl := res.Plan
		if got := grid.CellsInDiagRangeRect(rows, cols, pl.P1Lo, pl.P1Hi) + pl.GPUCells() +
			grid.CellsInDiagRangeRect(rows, cols, pl.P3Lo, pl.P3Hi); got != inst.Cells() {
			t.Errorf("%v: phases cover %d cells, want %d", par, got, inst.Cells())
		}
	}
	// Full offload covers every diagonal of the rectangle.
	pl, err := plan.Build(inst, GPUOnlyParamsFor(inst))
	if err != nil {
		t.Fatal(err)
	}
	if pl.GLo != 0 || pl.GHi != inst.NumDiags()-1 {
		t.Errorf("GPUOnlyParamsFor does not offload all diagonals: [%d,%d] of %d",
			pl.GLo, pl.GHi, inst.NumDiags())
	}
}

func TestSimulateRectMatchesSerialReference(t *testing.T) {
	// The functional simulation of a rectangular instance must produce a
	// grid bit-identical to the native serial sweep, in both orientations
	// and for hybrid, all-CPU and dual-GPU configurations.
	sys := hw.I7_2600K()
	for _, shape := range [][2]int{{30, 70}, {70, 30}} {
		rows, cols := shape[0], shape[1]
		for _, k := range []kernels.Kernel{
			kernels.NewSeqCompare(),
			kernels.NewSynthetic(3, 2),
		} {
			want := Reference(rows, cols, k)
			for _, par := range []plan.Params{
				CPUOnlyParams(4),
				{CPUTile: 4, Band: 20, GPUTile: 1, Halo: -1},
				{CPUTile: 4, Band: 20, GPUTile: 4, Halo: 3},
				GPUOnlyParamsFor(rectInstance(rows, cols, k)),
			} {
				res, g, err := Simulate(sys, plan.Instance{Rows: rows, Cols: cols}, k, par, Options{})
				if err != nil {
					t.Fatalf("%dx%d %s %v: %v", rows, cols, k.Name(), par, err)
				}
				if !g.Equal(want) {
					t.Errorf("%dx%d %s %v: simulated grid differs from serial reference",
						rows, cols, k.Name(), par)
				}
				if res.RTimeNs <= 0 {
					t.Errorf("%dx%d %s %v: non-positive virtual time", rows, cols, k.Name(), par)
				}
			}
		}
	}
}

func TestSimulateRectAgreesWithEstimate(t *testing.T) {
	// The analytic and functional paths walk the same choreography, so
	// their virtual times must agree on rectangular instances too.
	sys := hw.I7_3820()
	k := kernels.NewSynthetic(50, 1)
	rows, cols := 40, 90
	inst := rectInstance(rows, cols, k)
	for _, par := range []plan.Params{
		CPUOnlyParams(8),
		{CPUTile: 4, Band: 30, GPUTile: 4, Halo: -1},
		{CPUTile: 4, Band: 40, GPUTile: 1, Halo: 5},
	} {
		est, err := Estimate(sys, inst, par, Options{})
		if err != nil {
			t.Fatalf("estimate %v: %v", par, err)
		}
		sim, _, err := Simulate(sys, plan.Instance{Rows: rows, Cols: cols}, k, par, Options{})
		if err != nil {
			t.Fatalf("simulate %v: %v", par, err)
		}
		diff := est.RTimeNs - sim.RTimeNs
		if diff < 0 {
			diff = -diff
		}
		if rel := diff / est.RTimeNs; rel > 1e-6 {
			t.Errorf("%v: estimate %.3f != simulate %.3f (rel %g)",
				par, est.RTimeNs, sim.RTimeNs, rel)
		}
	}
}

func TestSerialNsRect(t *testing.T) {
	// The serial baseline scales with the cell count, not a squared side.
	sys := hw.I3_540()
	k := kernels.NewSeqCompare()
	rect := rectInstance(100, 400, k)
	square := plan.Instance{Dim: 200, TSize: k.TSize(), DSize: k.DSize()}
	if rect.Cells() != square.Cells() {
		t.Fatal("test shapes must have equal cell counts")
	}
	if a, b := SerialNs(sys, rect), SerialNs(sys, square); a != b {
		t.Errorf("serial baseline depends on shape, not cells: %g vs %g", a, b)
	}
}
