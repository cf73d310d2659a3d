package core_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/hw"
	"repro/internal/kernels"
	"repro/internal/plan"
)

// TestNeighbourhoodMoves pins the move list of a plan and the length of
// its ring, the served check's moves, on the shipped tuners and on a
// tuner whose band model learned from no rows.
func TestNeighbourhoodMoves(t *testing.T) {
	nash1, nash2 := kernels.NewNash(1), kernels.NewNash(2)
	nash1500 := plan.Instance{Dim: 1500, TSize: nash1.TSize(), DSize: nash1.DSize()}
	key1572 := plan.Instance{Dim: 1572, TSize: 2160, DSize: 1}
	bandless := bandlessTuner(t, hw.I7_3820())
	cases := []struct {
		name  string
		tuner *core.Tuner
		inst  plan.Instance
		p     plan.Params
		ring  int
		moves []plan.Params
	}{{
		// CPU-only at the cpu-tile and the doubled one, the band steps,
		// gpu-tile ×8; then the grid's cpu-tiles and the second GPU.
		name:  "single GPU",
		tuner: factoryTuner(t, hw.I7_2600K()),
		inst:  plan.Instance{Rows: 500, Cols: 2700, TSize: nash2.TSize(), DSize: nash2.DSize()},
		p:     plan.Params{CPUTile: 4, Band: 1119, GPUTile: 1, Halo: -1},
		ring:  5,
		moves: []plan.Params{
			{CPUTile: 4, Band: -1, GPUTile: 1, Halo: -1},
			{CPUTile: 8, Band: -1, GPUTile: 1, Halo: -1},
			{CPUTile: 4, Band: 895, GPUTile: 1, Halo: -1},
			{CPUTile: 4, Band: 1398, GPUTile: 1, Halo: -1},
			{CPUTile: 4, Band: 1119, GPUTile: 8, Halo: -1},
			{CPUTile: 2, Band: 1119, GPUTile: 1, Halo: -1},
			{CPUTile: 8, Band: 1119, GPUTile: 1, Halo: -1},
			{CPUTile: 4, Band: 1119, GPUTile: 1, Halo: 120},
		},
	}, {
		// The ring with halo ×2 and gpu-tile ×8, then an off-grid
		// cpu-tile's grid neighbours and the halo moved by -4, -1, +1
		// and +4.
		name:  "dual GPU",
		tuner: factoryTuner(t, hw.I7_2600K()),
		inst:  key1572,
		p:     plan.Params{CPUTile: 6, Band: 1117, GPUTile: 1, Halo: 15},
		ring:  6,
		moves: []plan.Params{
			{CPUTile: 6, Band: -1, GPUTile: 1, Halo: -1},
			{CPUTile: 12, Band: -1, GPUTile: 1, Halo: -1},
			{CPUTile: 6, Band: 893, GPUTile: 1, Halo: 15},
			{CPUTile: 6, Band: 1396, GPUTile: 1, Halo: 15},
			{CPUTile: 6, Band: 1117, GPUTile: 1, Halo: 30},
			{CPUTile: 6, Band: 1117, GPUTile: 8, Halo: 15},
			{CPUTile: 4, Band: 1117, GPUTile: 1, Halo: 15},
			{CPUTile: 10, Band: 1117, GPUTile: 1, Halo: 15},
			{CPUTile: 6, Band: 1117, GPUTile: 1, Halo: 11},
			{CPUTile: 6, Band: 1117, GPUTile: 1, Halo: 14},
			{CPUTile: 6, Band: 1117, GPUTile: 1, Halo: 16},
			{CPUTile: 6, Band: 1117, GPUTile: 1, Halo: 19},
		},
	}, {
		// Halo ×2 stops at the band's maximum halo, 227, where halo +1
		// already is, and gpu-tile ×8 at 25; halo +4 fails plan.Check.
		name:  "halo and gpu-tile near their caps",
		tuner: factoryTuner(t, hw.I7_2600K()),
		inst:  key1572,
		p:     plan.Params{CPUTile: 6, Band: 1117, GPUTile: 8, Halo: 226},
		ring:  6,
		moves: []plan.Params{
			{CPUTile: 6, Band: -1, GPUTile: 1, Halo: -1},
			{CPUTile: 12, Band: -1, GPUTile: 1, Halo: -1},
			{CPUTile: 6, Band: 893, GPUTile: 8, Halo: 226},
			{CPUTile: 6, Band: 1396, GPUTile: 8, Halo: 88},
			{CPUTile: 6, Band: 1117, GPUTile: 8, Halo: 227},
			{CPUTile: 6, Band: 1117, GPUTile: 25, Halo: 226},
			{CPUTile: 4, Band: 1117, GPUTile: 8, Halo: 226},
			{CPUTile: 10, Band: 1117, GPUTile: 8, Halo: 226},
			{CPUTile: 6, Band: 1117, GPUTile: 8, Halo: 222},
			{CPUTile: 6, Band: 1117, GPUTile: 8, Halo: 225},
		},
	}, {
		// At the maximum halo and gpu-tile 25 neither moves up.
		name:  "halo and gpu-tile at their caps",
		tuner: factoryTuner(t, hw.I7_2600K()),
		inst:  key1572,
		p:     plan.Params{CPUTile: 6, Band: 1117, GPUTile: 25, Halo: 227},
		ring:  4,
		moves: []plan.Params{
			{CPUTile: 6, Band: -1, GPUTile: 1, Halo: -1},
			{CPUTile: 12, Band: -1, GPUTile: 1, Halo: -1},
			{CPUTile: 6, Band: 893, GPUTile: 25, Halo: 227},
			{CPUTile: 6, Band: 1396, GPUTile: 25, Halo: 88},
			{CPUTile: 4, Band: 1117, GPUTile: 25, Halo: 227},
			{CPUTile: 10, Band: 1117, GPUTile: 25, Halo: 227},
			{CPUTile: 6, Band: 1117, GPUTile: 25, Halo: 223},
			{CPUTile: 6, Band: 1117, GPUTile: 25, Halo: 226},
		},
	}, {
		// The REP tree reads "0" here: the ring ends with the models'
		// GPU plan at gpu-tile 1; the GPU switched on at half the useful
		// band comes last.
		name:  "CPU-only with a GPU move",
		tuner: factoryTuner(t, hw.I7_3820()),
		inst:  nash1500,
		p:     plan.Params{CPUTile: 8, Band: -1, GPUTile: 1, Halo: -1},
		ring:  2,
		moves: []plan.Params{
			{CPUTile: 16, Band: -1, GPUTile: 1, Halo: -1},
			{CPUTile: 8, Band: 975, GPUTile: 1, Halo: 10},
			{CPUTile: 4, Band: -1, GPUTile: 1, Halo: -1},
			{CPUTile: 10, Band: -1, GPUTile: 1, Halo: -1},
			{CPUTile: 8, Band: 749, GPUTile: 1, Halo: -1},
		},
	}, {
		// The REP tree employs the GPU here, so the models imply no GPU
		// move for a CPU-only plan.
		name:  "CPU-only without a GPU move",
		tuner: factoryTuner(t, hw.I7_2600K()),
		inst:  key1572,
		p:     plan.Params{CPUTile: 6, Band: -1, GPUTile: 1, Halo: -1},
		ring:  1,
		moves: []plan.Params{
			{CPUTile: 12, Band: -1, GPUTile: 1, Halo: -1},
			{CPUTile: 4, Band: -1, GPUTile: 1, Halo: -1},
			{CPUTile: 10, Band: -1, GPUTile: 1, Halo: -1},
			{CPUTile: 6, Band: 785, GPUTile: 1, Halo: -1},
		},
	}, {
		// An off-grid tile above 10 steps down to 10 only; a single-GPU
		// system drops the second GPU.
		name:  "off-grid cpu-tile",
		tuner: factoryTuner(t, hw.I3_540()),
		inst:  plan.Instance{Dim: 1729, TSize: 36, DSize: 5},
		p:     plan.Params{CPUTile: 12, Band: 1534, GPUTile: 1, Halo: -1},
		ring:  5,
		moves: []plan.Params{
			{CPUTile: 12, Band: -1, GPUTile: 1, Halo: -1},
			{CPUTile: 24, Band: -1, GPUTile: 1, Halo: -1},
			{CPUTile: 12, Band: 1227, GPUTile: 1, Halo: -1},
			{CPUTile: 12, Band: 1917, GPUTile: 1, Halo: -1},
			{CPUTile: 12, Band: 1534, GPUTile: 8, Halo: -1},
			{CPUTile: 10, Band: 1534, GPUTile: 1, Halo: -1},
		},
	}, {
		// The band model learned from no rows and reads band 0: that GPU
		// move offloads nothing and is dropped from the ring. The
		// off-grid cpu-tile 5 steps to 4 and 10, which the ring holds.
		name:  "band-less tuner",
		tuner: bandless,
		inst:  nash1500,
		p:     bandless.Predict(nash1500).Par,
		ring:  1,
		moves: []plan.Params{
			{CPUTile: 10, Band: -1, GPUTile: 1, Halo: -1},
			{CPUTile: 4, Band: -1, GPUTile: 1, Halo: -1},
			{CPUTile: 5, Band: 749, GPUTile: 1, Halo: -1},
		},
	}}
	for _, c := range cases {
		moves, ring := c.tuner.Neighbourhood(c.inst, c.p)
		t.Logf("%s: %s %v from %v: ring %d of %v", c.name, c.tuner.Sys.Name, c.inst, c.p, ring, moves)
		if ring != c.ring || !slices.Equal(moves, c.moves) {
			t.Errorf("%s: ring %d of %v, want %d of %v", c.name, ring, moves, c.ring, c.moves)
		}
	}

	// The band-less case is a real one: its decision is CPU-only, its REP
	// tree reads "0" and its band model reads no band (fraction 0).
	x := []float64{math.Log(1500), math.Log(nash1.TSize()), float64(nash1.DSize())}
	if p := bandless.Predict(nash1500); p.Serial || p.Par.Band >= 0 {
		t.Errorf("band-less tuner decides %v, want a CPU-only plan", p)
	}
	if gt, band := bandless.GPUTile.Predict(x), bandless.Band.Predict(append(x, 1)); gt >= 0.5 || band != 0 {
		t.Errorf("band-less tuner reads gpu-tile %v and band fraction %v, want below 0.5 and 0", gt, band)
	}
}

// unboundedRefine is refine the long way: the same passes over the same
// neighbourhoods under the same budget, each probe an unbounded Estimate
// taken when strictly faster.
func unboundedRefine(tuner *core.Tuner, inst plan.Instance, start plan.Params) (plan.Params, core.RefineStats, error) {
	res, err := engine.Estimate(tuner.Sys, inst, start, engine.Options{})
	if err != nil {
		return plan.Params{}, core.RefineStats{}, err
	}
	cur, curNs := start, res.RTimeNs
	st := core.RefineStats{Probes: 1, StartNs: curNs}
	for improved := true; improved && st.Probes < core.RefineBudget; {
		improved = false
		moves, _ := tuner.Neighbourhood(inst, cur)
		for _, q := range moves {
			if st.Probes == core.RefineBudget {
				break
			}
			res, err := engine.Estimate(tuner.Sys, inst, q, engine.Options{})
			if err != nil {
				return plan.Params{}, core.RefineStats{}, err
			}
			st.Probes++
			if res.RTimeNs < curNs {
				cur, curNs, improved = q, res.RTimeNs, true
				st.Moves++
			}
		}
	}
	st.FinalNs = curNs
	return cur, st, nil
}

// TestRefineMatchesUnbounded: over servedGrid on the shipped tuners,
// refine from the served plan, whose probes are censored at the
// incumbent, returns the plan, FinalNs, Probes and Moves of an unbounded
// refine over the same move lists, bit for bit.
func TestRefineMatchesUnbounded(t *testing.T) {
	for _, sys := range hw.Systems() {
		tuner := factoryTuner(t, sys)
		online := core.NewOnlineTuner(tuner)
		for _, inst := range servedGrid() {
			pred, _, _, err := tuner.PredictTimed(inst)
			if err != nil {
				t.Fatal(err)
			}
			got, gotSt, err := online.RefineFrom(inst, pred.Par)
			if err != nil {
				t.Fatalf("%s %v: %v", sys.Name, inst, err)
			}
			want, wantSt, err := unboundedRefine(tuner, inst, pred.Par)
			if err != nil {
				t.Fatalf("%s %v: %v", sys.Name, inst, err)
			}
			if g, w := fmt.Sprintf("%#v %#v", got.Par, gotSt), fmt.Sprintf("%#v %#v", want, wantSt); got.Serial || g != w {
				t.Errorf("%s %v:\nrefine    %s\nunbounded %s", sys.Name, inst, g, w)
			}
		}
	}
}

// TestRefineQuality gates refine on the shipped tuners over servedGrid:
// no refine ends slower than its start or probes past the budget, and
// each system's geometric mean FinalNs stays at or below its ceiling.
// The ceilings are that mean when the served check probed its ring once
// and refine climbed from there (1.08339e8, 3.48805e7 and 2.87992e7 ns;
// mean StartNs/FinalNs 1.005285, 1.005463 and 1.004629). Since the
// served check climbs its ring, refine starts from a plan no ring move
// beats, so StartNs/FinalNs is no longer the measure: it reads 1.000443,
// 1.001276 and 1.001486, and the final plans 1.06412e8, 3.47109e7 and
// 2.87076e7 ns, over 1711, 1677 and 1658 probes.
func TestRefineQuality(t *testing.T) {
	ceilings := map[string]float64{"i3-540": 1.08339e8, "i7-2600K": 3.48805e7, "i7-3820": 2.87992e7}
	for _, sys := range hw.Systems() {
		online := core.NewOnlineTuner(factoryTuner(t, sys))
		var logSum, impSum float64
		probes := 0
		grid := servedGrid()
		for _, inst := range grid {
			_, st, err := online.Refine(inst)
			if err != nil {
				t.Fatalf("%s %v: %v", sys.Name, inst, err)
			}
			if st.FinalNs > st.StartNs || st.Probes > core.RefineBudget {
				t.Errorf("%s %v: refine ended at %v ns from %v ns after %d probes (budget %d)", sys.Name, inst, st.FinalNs, st.StartNs, st.Probes, core.RefineBudget)
			}
			logSum += math.Log(st.FinalNs)
			impSum += st.Improvement()
			probes += st.Probes
		}
		n := float64(len(grid))
		geo := math.Exp(logSum / n)
		t.Logf("%s: geometric mean FinalNs %.6g (ceiling %.6g), mean improvement %.6f, over %d instances, %d probes",
			sys.Name, geo, ceilings[sys.Name], impSum/n, len(grid), probes)
		if geo > ceilings[sys.Name] {
			t.Errorf("%s: geometric mean FinalNs %.6g above its ceiling %.6g", sys.Name, geo, ceilings[sys.Name])
		}
	}
}
