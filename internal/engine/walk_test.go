package engine

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/grid"
	"repro/internal/hw"
	"repro/internal/plan"
)

// refLaunch is one kernel launch of the reference walk: device dev's
// partitions of a chunk of consecutive diagonals (chunk length =
// gpu-tile), charged for points.
type refLaunch struct {
	dev, points int
	segs        []diagSeg
}

// refWalk is the per-diagonal walk that gpuSchedule.walk replaces: it
// visits every diagonal of every launch through devRows, and hands each
// non-empty launch to onLaunch in execution order.
func refWalk(s *gpuSchedule, onLaunch func(l refLaunch), endPeriod func(swapAfter bool) bool) {
	pl := s.pl
	for ds := pl.GLo; ds <= pl.GHi; ds += s.period {
		m := min(s.period, pl.GHi-ds+1)
		a0 := grid.DiagStartRowRect(s.rows, s.cols, ds)
		l0 := grid.DiagLenRect(s.rows, s.cols, ds)
		for dev := 0; dev < s.nGPU; dev++ {
			for c0 := 0; c0 < m; c0 += s.gpuTile {
				l := refLaunch{dev: dev}
				for k := c0; k < min(c0+s.gpuTile, m); k++ {
					lo, hi := s.devRows(ds+k, dev, a0, l0, m-1-k)
					if hi < lo {
						continue
					}
					l.points += hi - lo + 1
					l.segs = append(l.segs, diagSeg{d: ds + k, rowLo: lo, rowHi: hi})
				}
				if s.liveFrac < 1 && l.points > 0 {
					l.points = max(int(math.Round(float64(l.points)*s.liveFrac)), 1)
				}
				if l.points > 0 {
					onLaunch(l)
				}
			}
		}
		if !endPeriod(s.nGPU >= 2 && ds+m <= pl.GHi) {
			return
		}
	}
}

// refEstimate is Estimate over refWalk: every launch timed from its own
// point count.
func refEstimate(sys hw.System, inst plan.Instance, par plan.Params, opts Options) (Result, error) {
	pl, err := prepare(sys, inst, par, opts)
	if err != nil {
		return Result{}, err
	}
	res := Result{Plan: pl}
	res.FrontierSteps = inst.NumDiags()
	clk := clock{res: &res, thresholdNs: opts.ThresholdNs}
	if clk.cpuPhase(&res.Phase1Ns, cpuPhaseNs(sys, inst, par.CPUTile, pl.P1Lo, pl.P1Hi)) {
		return res, nil
	}
	if sch, ok := buildGPUSchedule(pl, opts.GPUs); ok {
		clk.startGPU(sys, &sch)
		m := meter{costs: launchCosts(nil, sys, inst, sch.nGPU), dev: -1}
		cut := false
		refWalk(&sch, func(l refLaunch) {
			m.add(l.dev, m.costs[l.dev].DurationNs(l.points, sch.syncSteps, sch.inflate), 1)
		}, func(swapAfter bool) bool {
			swaps := 0
			if swapAfter {
				swaps = 1
			}
			cut = clk.replay([]periodNs{{m.endPeriod(), 1}}, swaps)
			return !cut
		})
		m.fold(&res)
		if cut || clk.finishGPU(sys, &sch) {
			return res, nil
		}
	}
	clk.cpuPhase(&res.Phase3Ns, cpuPhaseNs(sys, inst, par.CPUTile, pl.P3Lo, pl.P3Hi))
	return res, nil
}

// expandedLaunches lists a schedule's launches as the run walk's runs
// expand them on every period of their run of periods, as
// "dev:points:segs" strings, with "|" at each period end.
func expandedLaunches(sch *gpuSchedule, costs []hw.LaunchCost) []string {
	type firstRun struct {
		c int
		r launchRun
	}
	var out []string
	var runs []firstRun
	sch.walk(costs, func(c int, r launchRun) {
		runs = append(runs, firstRun{c, r})
	}, func(q, n, _ int) bool {
		for j := range n {
			p := sch.spanAt(q + j)
			for _, fr := range runs {
				r := fr.r
				for i := fr.c; i < fr.c+int(r.n); i++ {
					var segs []diagSeg
					points := sch.launchPoints(p, int(r.dev), i, &segs)
					if int(r.passes) != costs[r.dev].Passes(points) {
						out = append(out, fmt.Sprintf("run of %d passes holds a launch of %d points", r.passes, points))
					}
					out = append(out, fmt.Sprintf("%d:%d:%v", r.dev, points, segs))
				}
			}
			out = append(out, "|")
		}
		runs = runs[:0]
		return true
	})
	return out
}

// referenceLaunches is expandedLaunches for refWalk.
func referenceLaunches(sch *gpuSchedule) []string {
	var out []string
	refWalk(sch, func(l refLaunch) {
		out = append(out, fmt.Sprintf("%d:%d:%v", l.dev, l.points, l.segs))
	}, func(bool) bool { out = append(out, "|"); return true })
	return out
}

// TestRunWalkMatchesReference is the run walk's oracle: on random
// rectangles, masked and dense, with 1 to 4 GPUs of the modeled or of
// narrow SIMT widths, gpu-tiles 1 to 25,
// halos from 0 to the band's maximum and full bands, the runs expand to
// the reference walk's launches, Estimate equals refEstimate bit for bit
// in every field and a Sweep's RTime its runtime and censoring, censored
// runs included.
func TestRunWalkMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	wide := hw.WithGPUCount(hw.I7_2600K(), 4)
	systems := []struct {
		sys  hw.System
		gpus int
	}{
		{hw.I3_540(), 0}, {hw.I7_2600K(), 0}, {wide, 3}, {wide, 4},
	}
	var sw Sweep
	compared := 0
	for trial := 0; trial < 400; trial++ {
		s := systems[trial%len(systems)]
		if rng.Intn(4) > 0 {
			// Narrow devices give many distinct pass counts per period,
			// so runs end inside the monotone ranges as well as at their
			// ends.
			s.sys.GPUs = slices.Clone(s.sys.GPUs)
			for i := range s.sys.GPUs {
				s.sys.GPUs[i].CUs, s.sys.GPUs[i].Lanes = 1, 1+rng.Intn(48)
			}
		}
		// Mostly moderate shapes, some tiny ones where a device's share
		// of a period is empty.
		side := func() int {
			if rng.Intn(5) == 0 {
				return 1 + rng.Intn(12)
			}
			return 1 + rng.Intn(500)
		}
		inst := plan.Instance{
			Rows: side(), Cols: side(),
			TSize: []float64{0.5, 10, 1000, 8000}[rng.Intn(4)],
			DSize: rng.Intn(6),
		}
		if rng.Intn(3) == 0 {
			// Square and near-square shapes peak in a few launches, with
			// runs of one pass count on both sides of the peak.
			inst.Cols = max(inst.Rows+rng.Intn(61)-30, 1)
		}
		if rng.Intn(3) == 0 {
			inst.LiveCells = 1 + rng.Intn(inst.Rows*inst.Cols)
		}
		maxBand := inst.MaxUsefulBand()
		band := maxBand
		if rng.Intn(3) > 0 {
			band = rng.Intn(maxBand + 1)
		}
		halo := -1
		if s.sys.MaxGPUs() >= 2 && rng.Intn(4) > 0 {
			halo = rng.Intn(plan.MaxHaloFor(inst, band) + 1)
		}
		par := plan.Params{CPUTile: 1 + rng.Intn(16), Band: band, GPUTile: 1 + rng.Intn(25), Halo: halo}
		if plan.Check(inst, par) != nil {
			continue
		}
		opts := Options{GPUs: s.gpus}
		want, err := refEstimate(s.sys, inst, par, opts)
		if err != nil {
			t.Fatal(err)
		}
		if sch, ok := buildGPUSchedule(want.Plan, opts.GPUs); ok {
			got := expandedLaunches(&sch, launchCosts(nil, s.sys, inst, sch.nGPU))
			ref := referenceLaunches(&sch)
			if fmt.Sprint(got) != fmt.Sprint(ref) {
				t.Fatalf("%v %v %+v: run walk launches\n%v\nreference\n%v", inst, par, opts, got, ref)
			}
		}
		// Unbounded, and censored part-way through the GPU phase.
		for _, th := range []float64{0, want.Phase1Ns + want.GPUNs*rng.Float64()} {
			opts.ThresholdNs = th
			want, err := refEstimate(s.sys, inst, par, opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Estimate(s.sys, inst, par, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !sameResult(got, want) {
				t.Fatalf("%v %v %+v:\nEstimate  %+v\nreference %+v", inst, par, opts, got, want)
			}
			sw.Reset(s.sys, inst, opts)
			ns, censored, err := sw.RTime(par)
			if err != nil {
				t.Fatal(err)
			}
			if !sameRTime(ns, censored, want) {
				t.Fatalf("%v %v %+v: Sweep %v censored=%v, reference %v censored=%v", inst, par, opts, ns, censored, want.RTimeNs, want.Censored)
			}
			compared++
		}
	}
	if compared < 400 {
		t.Errorf("only %d estimates compared", compared)
	}
}

// TestDevRowsCoverAll: on every diagonal of a swap period, the devices'
// non-empty row ranges run in device order, each starting at or below
// the row after the previous one's end, and together they cover the
// diagonal from its start row to its end row. A device's range reaches
// at most ov rows below its partition cut.
func TestDevRowsCoverAll(t *testing.T) {
	f := func(rawRows, rawCols, rawDS, rawM, rawN uint16) bool {
		rows, cols := int(rawRows)%300+1, int(rawCols)%300+1
		s := gpuSchedule{rows: rows, cols: cols, nGPU: int(rawN)%3 + 2}
		nd := rows + cols - 1
		ds := int(rawDS) % nd
		m := min(int(rawM)%40+1, nd-ds)
		a0, l0 := grid.DiagStartRowRect(rows, cols, ds), grid.DiagLenRect(rows, cols, ds)
		for k := range m {
			d, ov := ds+k, m-1-k
			a := grid.DiagStartRowRect(rows, cols, d)
			b := a + grid.DiagLenRect(rows, cols, d) - 1
			next := a // lowest row not yet covered
			for dev := range s.nGPU {
				lo, hi := s.devRows(d, dev, a0, l0, ov)
				if hi < lo {
					continue
				}
				if lo < a || hi > b || lo > next {
					return false
				}
				if dev > 0 && lo < a0+dev*l0/s.nGPU-ov {
					return false
				}
				next = max(next, hi+1)
			}
			if next != b+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Error(err)
	}
}

// TestDevRowsSingle: one device computes the whole diagonal.
func TestDevRowsSingle(t *testing.T) {
	s := gpuSchedule{rows: 120, cols: 100, nGPU: 1}
	for _, d := range []int{0, 50, 99, 119, 218} {
		a := grid.DiagStartRowRect(120, 100, d)
		lo, hi := s.devRows(d, 0, 0, 1, 5)
		if lo != a || hi-lo+1 != grid.DiagLenRect(120, 100, d) {
			t.Errorf("diagonal %d: rows [%d, %d], want the whole diagonal from row %d", d, lo, hi, a)
		}
	}
}

// TestDevRowsOverlapSize: between two devices, the one below the cut
// recomputes ov rows above it, so the overlap shrinks by one row per
// diagonal through the period and is gone on its last diagonal.
func TestDevRowsOverlapSize(t *testing.T) {
	// A 100-cell diagonal starting at row 0 begins the period.
	s := gpuSchedule{rows: 200, cols: 100, nGPU: 2}
	for ov := 7; ov >= 0; ov-- {
		d := 99 + 7 - ov
		_, hi0 := s.devRows(d, 0, 0, 100, ov)
		lo1, _ := s.devRows(d, 1, 0, 100, ov)
		if got := hi0 - lo1 + 1; got != ov {
			t.Errorf("ov %d: %d overlapping rows", ov, got)
		}
	}
}
