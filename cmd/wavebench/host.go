package main

// host-sweep: every registry application computed for real on the host
// CPU through the public wavefront runners, the serial run as reference
// and the tiled (dense apps) or irregular (masked apps) executor as the
// parallel run. No daemon runs here.

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"repro/wavefront"
)

// hostApp is one application's fixed host-sweep instance. Sides keep
// every grid at or under 64 MB (a cell is 16 bytes plus 8 per float)
// and make the parallel runs as long as that allows, 50 ms or more for
// most apps on a 2-vCPU host; seqcompare is the one rectangle, nussinov
// the triangle and morphrecon the mask.
type hostApp struct {
	name       string
	rows, cols int
	params     wavefront.AppValues
}

var hostApps = []hostApp{
	{"synthetic", 800, 800, wavefront.AppValues{"tsize": 100, "dsize": 1}},
	{"nash", 1150, 1150, nil},
	{"seqcompare", 1400, 2800, nil},
	{"knapsack", 2000, 2000, nil},
	{"swaffine", 1400, 1400, nil},
	{"lcs", 2000, 2000, nil},
	{"dtw", 1600, 1600, nil},
	{"nussinov", 1400, 1400, nil},
	{"morphrecon", 1024, 1024, nil},
}

// hostCPUTile is the tile side of every parallel host run.
const hostCPUTile = 16

// minHostReps is the fewest repetitions each host timing takes.
const minHostReps = 5

// hostCase is one application ready to run: its kernel, its work grid
// and its live-cell count.
type hostCase struct {
	name       string
	k          wavefront.Kernel
	rows, cols int
	masked     bool
	live       int
	g          *wavefront.Grid
}

// newHostCase builds an app's kernel and grid at scale times its sides.
func newHostCase(a hostApp, scale float64) (*hostCase, error) {
	rows := max(int(float64(a.rows)*scale), 16)
	cols := max(int(float64(a.cols)*scale), 16)
	k, err := wavefront.NewAppKernel(a.name, rows, cols, a.params)
	if err != nil {
		return nil, err
	}
	hc := &hostCase{name: a.name, k: k, rows: rows, cols: cols, live: rows * cols,
		g: wavefront.NewRectGrid(rows, cols, k.DSize())}
	if _, ok := k.(wavefront.KernelMask); ok {
		hc.masked = true
		_, hc.live = wavefront.CountFrontier(wavefront.KernelFrontier(k, rows, cols))
	}
	return hc, nil
}

// reset zeroes the work grid, the state a fresh grid starts from.
func (hc *hostCase) reset() {
	clear(hc.g.IntA)
	clear(hc.g.IntB)
	clear(hc.g.Floats)
}

// serial computes the grid with the serial reference. Like the other
// runs it expects a grid reset to its initial state.
func (hc *hostCase) serial() time.Duration {
	return wavefront.RunSerial(hc.k, hc.g)
}

// parallel computes the grid with the tiled executor (dense apps) or the
// irregular tile frontier (masked apps).
func (hc *hostCase) parallel(ctx context.Context) (time.Duration, error) {
	if hc.masked {
		return wavefront.RunIrregular(ctx, hc.k, hc.g, hostCPUTile, procs)
	}
	return wavefront.RunParallel(hc.k, hc.g, hostCPUTile, procs)
}

// frontier computes the grid one frontier step at a time and returns
// the run time and its step (barrier) count.
func (hc *hostCase) frontier(ctx context.Context) (time.Duration, int, error) {
	var f wavefront.Frontier = wavefront.NewDiagFrontier(hc.rows, hc.cols)
	steps := hc.rows + hc.cols - 1
	if hc.masked {
		f = wavefront.KernelFrontier(hc.k, hc.rows, hc.cols)
		steps, _ = wavefront.CountFrontier(wavefront.KernelFrontier(hc.k, hc.rows, hc.cols))
	}
	d, err := wavefront.RunFrontier(ctx, hc.k, hc.g, f, procs)
	return d, steps, err
}

// hostTimes is one app's timings in milliseconds.
type hostTimes struct {
	serial, parallel []float64
}

// checker returns a function that counts one checked run of hc and
// fails it unless the grid equals the first serial result, cell for
// cell; the first call after a serial run takes that result as the
// reference.
func checker(hc *hostCase, res *result) func(run string) {
	var ref *wavefront.Grid
	return func(run string) {
		if ref == nil {
			ref = hc.g.Clone()
		}
		res.ops(1, 0)
		if !hc.g.Equal(ref) {
			res.problem("%s: %s grid differs from the serial reference", hc.name, run)
			res.ops(0, 1)
		}
	}
}

// measureHost runs one app for at least minHostReps repetitions of a
// serial and a parallel run, and for at least budget, checking every
// result against the first serial grid.
func measureHost(ctx context.Context, hc *hostCase, budget time.Duration, res *result) (hostTimes, error) {
	var t hostTimes
	check := checker(hc, res)
	start := time.Now()
	for rep := 0; rep < minHostReps || time.Since(start) < budget; rep++ {
		hc.reset()
		t.serial = append(t.serial, ms(hc.serial()))
		check("serial")
		hc.reset()
		d, err := hc.parallel(ctx)
		if err != nil {
			return t, fmt.Errorf("%s: %w", hc.name, err)
		}
		t.parallel = append(t.parallel, ms(d))
		check("parallel")
	}
	return t, nil
}

// buildAllHost builds every app's kernel and grid once, one at a time,
// and returns the time the builds took: host-sweep's set-up. Each case
// is collected and its memory returned to the OS before the next is
// built, so every build pays for fresh pages as a new process does;
// otherwise whether the runtime's background scavenger happened to have
// returned the previous grid's pages would decide the time.
func buildAllHost(scale float64) (time.Duration, error) {
	var took time.Duration
	for _, a := range hostApps {
		debug.FreeOSMemory()
		start := time.Now()
		if _, err := newHostCase(a, scale); err != nil {
			return 0, err
		}
		took += time.Since(start)
	}
	debug.FreeOSMemory()
	return took, nil
}

// runHost runs host-sweep.
func runHost(ctx context.Context, e *env, res *result) error {
	var setups []float64
	for i := 0; i < e.setupReps; i++ {
		d, err := buildAllHost(e.hostScale)
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
	}
	res.set("setup_s", median(setups), "s", fmt.Sprintf("kernel and grid build of %d apps, median of %d", len(hostApps), e.setupReps))

	// The resident set is read once per app, after its runs: sampling in
	// time would weight each app by how long this host took to run it.
	var rates, p50s, tails, speedups, rss []float64
	budget := e.window / time.Duration(len(hostApps))
	for _, a := range hostApps {
		hc, err := newHostCase(a, e.hostScale)
		if err != nil {
			return err
		}
		t, err := measureHost(ctx, hc, budget, res)
		if err != nil {
			return err
		}
		par := median(t.parallel)
		rates = append(rates, float64(hc.live)/(par/1e3))
		p50s = append(p50s, par*1e3)
		tails = append(tails, slices.Max(t.parallel)*1e3)
		// The fastest repetition of each run is the least disturbed by
		// other tenants of the host, which only ever slow a run down.
		speedups = append(speedups, slices.Min(t.serial)/slices.Min(t.parallel))
		res.diag("host."+a.name+"_ms", par, "ms", "lower", fmt.Sprintf("parallel median; serial median %.3g ms, %dx%d, %d live cells, %d reps",
			median(t.serial), hc.rows, hc.cols, hc.live, len(t.parallel)))
		mb, err := memMB(0, "VmRSS")
		if err != nil {
			return err
		}
		rss = append(rss, mb)
	}
	speedup := geomean(speedups)
	res.set("efficiency", speedup/procs, "ratio", fmt.Sprintf("parallel efficiency: serial/parallel speedup %.3g (fastest reps, geomean over apps) over %d workers", speedup, procs))
	res.diag("throughput_per_s", geomean(rates), "1/s", "higher", "live cells per second of the parallel runs, geomean over apps of the per-app median")
	res.diag("latency_p50_us", geomean(p50s), "us", "lower", "parallel run, geomean over apps of the per-app median")
	res.diag("latency_tail_us", geomean(tails), "us", "lower", "parallel run, geomean over apps of the slowest repetition")
	return reportRSS(res, 0, "wavebench", rss)
}

// hostLayers times the host substrate per app for the traced run: the
// serial kernel cost per live cell, the parallel executor, the one-step-
// at-a-time frontier executor and its barrier count, and the goroutines
// the public runners leave behind.
func hostLayers(ctx context.Context, e *env, rec *recorder, res *result) error {
	before := runtime.NumGoroutine()
	for _, a := range hostApps {
		hc, err := newHostCase(a, e.hostScale)
		if err != nil {
			return err
		}
		var ser, par, fr []float64
		steps := 0
		check := checker(hc, res)
		for rep := 0; rep < 3; rep++ {
			hc.reset()
			sp := rec.start("kernels.serial", 0, 0)
			d := hc.serial()
			sp.end()
			ser = append(ser, ms(d))
			check("serial")
			hc.reset()
			sp = rec.start("cpuexec.parallel", 0, 0)
			d, err := hc.parallel(ctx)
			sp.end()
			if err != nil {
				return err
			}
			par = append(par, ms(d))
			check("parallel")
			hc.reset()
			sp = rec.start("cpuexec.frontier", 0, 0)
			d, steps, err = hc.frontier(ctx)
			sp.end()
			if err != nil {
				return err
			}
			fr = append(fr, ms(d))
			check("frontier")
		}
		s, p := median(ser), median(par)
		res.set("kernels.cell_ns."+a.name, s*1e6/float64(hc.live), "ns")
		res.set("cpuexec.parallel_ms."+a.name, p, "ms")
		res.set("cpuexec.frontier_ms."+a.name, median(fr), "ms")
		res.set("cpuexec.overhead_ratio."+a.name, p*procs/s, "ratio")
		res.set("grid.steps."+a.name, float64(steps), "count")
		runtime.GC()
	}
	res.set("cpuexec.goroutines_leaked", float64(runtime.NumGoroutine()-before), "count")
	return nil
}
