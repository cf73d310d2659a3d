// Package engine executes three-phase wavefront plans on the modeled
// heterogeneous systems. It provides two equivalent views of a run:
//
//   - Estimate: a fast analytic walk of the plan that returns virtual time
//     and a cost breakdown without touching any data. A Sweep gives the
//     same runtime and censoring for many configurations of one
//     instance; the exhaustive search evaluates hundreds of thousands of
//     configurations through it.
//   - Simulate: a functional discrete-event simulation through the simcl
//     runtime that computes real cell values while accumulating exactly
//     the same modeled costs. Tests assert that both paths agree, so the
//     cheap path is trustworthy.
//
// Both derive every duration from the hw cost models. The GPU phase's
// choreography (swap periods, per-period device lockstep, each device's
// kernel launches, halo swaps, transfer sizes) is defined once, as the
// gpuSchedule walk. A launch's duration depends on its points only
// through its SIMT pass count, so the walk yields, for each period and
// device, runs of consecutive launches with equal pass count; it finds
// where a run ends by a binary search on the exact per-launch point
// count within the ranges where the diagonal lengths, cut by the
// period's partitions, make that count monotone, without visiting every
// diagonal. One level up it yields runs of identical periods: between
// the breakpoints of the diagonal profile each launch's pass count is
// monotone in the period index, so it gallops and binary-searches over
// the periods, comparing each with the run's first, and hands over the
// first period's launch runs with the run's length. Simulate expands
// each launch run, on every period of its run of periods, into its
// launches' row segments (devRows) and simcl kernel requests. For the
// analytic path a meter folds the launches into period lengths in walk
// order, and a clock sums the run in execution order: Phase 1, GPU
// start-up and input transfers, each period and its halo swap with the
// censoring check at its end, output transfers, Phase 3. The meter times
// each launch run, keeping each device's last timed run, so a run whose
// pass count repeats its device's previous one is not timed again.
// Estimate feeds the clock from the live walk without allocating: it
// times each run of periods once, replays the run's periods through the
// clock one by one, and counts the repeated periods' launches into the
// breakdown one by one, in walk order. A Sweep keeps a two-level tape
// per distinct GPU schedule, since a schedule never depends on the
// cpu-tile. The shape tape holds the walk's runs (each launch run's
// device, pass count and length, and each run of periods' length),
// which depend only on the grid shape; it is walked once per shape. The
// instance tape replays it through the meter with the instance's launch
// costs into period lengths, timing each run of periods once. Every
// configuration sharing the schedule replays the instance tape through
// the same clock from its own Phase 1 time.
//
// Estimate's output is bit-identical across refactors: the golden tests
// hash every quick-space search point and a set of full breakdowns, and
// check a Sweep's runtime and censoring against Estimate at every point,
// so any change to a float expression or to a summation order must be
// deliberate. Trained tuners, served runtimes and efficiencies all rest
// on those bits.
package engine

import (
	"fmt"
	"math"

	"repro/internal/cpuexec"
	"repro/internal/grid"
	"repro/internal/hw"
	"repro/internal/kernels"
	"repro/internal/plan"
	"repro/internal/simcl"
)

// SerialTile is the tile side used by the optimized sequential baseline.
const SerialTile = 8

// DefaultThresholdNs is the paper's 90-second exploration cutoff.
const DefaultThresholdNs = 90e9

// Options control an estimate.
type Options struct {
	// ThresholdNs censors runs longer than this; 0 disables censoring.
	ThresholdNs float64
	// GPUs, when > 2, widens a multi-GPU configuration (halo >= 0) to
	// that many devices — the paper's future-work extension beyond two
	// GPUs. It is clamped to the system's device count and ignored for
	// single-GPU and all-CPU configurations.
	GPUs int
	// CollectTrace records a command timeline during Simulate (ignored by
	// Estimate); the trace is returned in Result.Trace.
	CollectTrace bool
}

// Breakdown itemizes where the virtual time went.
type Breakdown struct {
	Phase1Ns float64 // leading CPU triangle
	GPUNs    float64 // whole GPU phase including transfers and swaps
	Phase3Ns float64 // trailing CPU triangle

	StartupNs float64 // device context creation and build
	LaunchNs  float64 // accumulated kernel launch overhead
	ComputeNs float64 // on-device compute including barrier steps
	XferNs    float64 // input + output transfers
	SwapNs    float64 // halo exchange transfers

	Kernels         int
	Swaps           int
	RedundantPoints int
	// FrontierSteps is the number of barrier-separated wavefront steps
	// of the executed schedule. The modeled three-phase run sweeps the
	// anti-diagonal frontier, so it equals the diagonal count; consumers
	// must use it (not grid.NumDiagsRect recomputed from the shape) for
	// progress accounting, because irregular frontier executions report
	// their own, generally smaller, step counts.
	FrontierSteps int
}

// Result is the outcome of one modeled run.
type Result struct {
	// RTimeNs is the end-to-end virtual runtime.
	RTimeNs float64
	// Censored is set when the run exceeded Options.ThresholdNs and was
	// cut off (the paper's 90 s rule); RTimeNs then holds the threshold.
	Censored bool
	Plan     *plan.Plan
	// Trace holds the command timeline when Options.CollectTrace was set
	// on a Simulate call.
	Trace *simcl.Trace
	Breakdown
}

// RTimeSec returns the runtime in seconds.
func (r Result) RTimeSec() float64 { return r.RTimeNs / 1e9 }

// cpuPhaseNs models a tiled parallel CPU phase over cell-diagonals
// [lo, hi]: each tile-diagonal contributes its cells divided by the
// available parallelism (capped by the tile wavefront width) plus one
// barrier.
func cpuPhaseNs(sys hw.System, inst plan.Instance, ct, lo, hi int) float64 {
	if hi < lo {
		return 0
	}
	rows, cols := inst.Shape()
	// Masked instances only pay for their live fraction of each
	// tile-diagonal: dead cells are no-ops (skipped entirely on the
	// frontier path), so charging the full rectangle would overestimate
	// triangular and sparse workloads.
	per := sys.CPU.PointNs(inst.TSize, ct, inst.ElemBytes()) * inst.LiveFrac()
	total := 0.0
	for td := range plan.CPUTileDiagsRect(rows, cols, ct, lo, hi) {
		p := math.Min(float64(td.NTiles), sys.CPU.EffParallel)
		total += float64(td.Cells)*per/p + sys.CPU.TileBarrierNs
	}
	return total
}

// SerialNs returns the optimized sequential baseline: a single-core sweep
// with the serial-best tile size and no synchronization.
func SerialNs(sys hw.System, inst plan.Instance) float64 {
	ct := SerialTile
	if ct > inst.MinSide() {
		ct = inst.MinSide()
	}
	per := sys.CPU.PointNs(inst.TSize, ct, inst.ElemBytes())
	return float64(inst.WorkCells()) * per
}

// MeasureStepsNs returns the modeled runtime of actually executing a
// tuning decision on sys — the stand-in for wall-clock timing a real run,
// used by the job executor: the optimized sequential baseline when serial
// is set, otherwise the uncensored hybrid estimate of par. It also returns
// the executed schedule's wavefront step count: the modeled run's
// FrontierSteps for a hybrid execution, and 1 for the serial baseline (a
// single uninterrupted row-major sweep has no inter-step barriers).
// Progress and throughput reporting must derive step totals from here
// rather than recomputing NumDiags from the shape, which misstates
// irregular runs.
func MeasureStepsNs(sys hw.System, inst plan.Instance, serial bool, par plan.Params) (float64, int, error) {
	if serial {
		return SerialNs(sys, inst), 1, nil
	}
	res, err := Estimate(sys, inst, par, Options{})
	if err != nil {
		return 0, 0, err
	}
	return res.RTimeNs, res.FrontierSteps, nil
}

// gpuSchedule is the device-side choreography of a plan's GPU phase: the
// devices taking part, their transfers, and — through walk — the swap
// periods and kernel launches. Estimate, Sweep and Simulate all consume
// walk, so the analytic and functional paths cannot drift apart.
type gpuSchedule struct {
	pl         *plan.Plan
	rows, cols int
	nGPU       int
	inBytes    int // the two predecessor diagonals feeding the band
	outCells   int // the band region returned to the host
	elem       int
	swapByte   int
	period     int // diagonals between halo exchanges
	gpuTile    int
	syncSteps  int
	inflate    float64
	liveFrac   float64
}

// span is one swap period of a walk: m diagonals from ds. Its partition
// cuts are taken from diagonal ds, which starts at row a0 and has l0
// cells. Launch c of a device covers the period's diagonals from
// ds+c*gpuTile, at most gpuTile of them.
type span struct{ ds, m, a0, l0 int }

// launchRun is n consecutive launches on device dev of passes SIMT passes
// each.
type launchRun struct{ dev, passes, n int32 }

type diagSeg struct {
	d, rowLo, rowHi int // rows [rowLo, rowHi] of diagonal d; empty if lo>hi
}

// buildGPUSchedule sets up the phase-2 choreography for a plan; ok is false
// when the plan has no GPU phase. wantGPUs > 2 widens a dual-GPU
// configuration to that many devices.
func buildGPUSchedule(pl *plan.Plan, wantGPUs int) (sch gpuSchedule, ok bool) {
	nGPU := pl.Par.GPUCount()
	if nGPU == 2 && wantGPUs > 2 {
		nGPU = wantGPUs
	}
	if nGPU == 0 || pl.GPUDiags() == 0 {
		return gpuSchedule{}, false
	}
	rows, cols := pl.Inst.Shape()
	elem := pl.Inst.ElemBytes()
	sch = gpuSchedule{
		pl: pl, rows: rows, cols: cols, nGPU: nGPU,
		inBytes:  (grid.DiagLenRect(rows, cols, pl.GLo-1) + grid.DiagLenRect(rows, cols, pl.GLo-2)) * elem,
		outCells: pl.GPUCells(),
		elem:     elem,
		period:   pl.GPUDiags(),
		gpuTile:  pl.Par.GPUTile,
		inflate:  1,
		liveFrac: pl.Inst.LiveFrac(),
	}
	if nGPU >= 2 {
		sch.period = pl.SwapPeriod()
		sch.swapByte = max(pl.Par.Halo, 1) * sch.elem
	}
	if g := sch.gpuTile; g > 1 {
		sch.inflate = float64(2*g-1) / float64(g)
		sch.syncSteps = 2*g - 1
	}
	return sch, true
}

// xferIn returns each device's equal share of the input transfer.
func (s *gpuSchedule) xferIn() int { return s.inBytes / s.nGPU }

// xferOut returns device dev's share of the output transfer; the last
// device absorbs the rounding remainder.
func (s *gpuSchedule) xferOut(dev int) int {
	if dev == s.nGPU-1 {
		return (s.outCells - (s.nGPU-1)*(s.outCells/s.nGPU)) * s.elem
	}
	return s.outCells / s.nGPU * s.elem
}

// walk runs the GPU phase in execution order: for each swap period, every
// device's launches (device 0 first, each device's in diagonal order),
// then the halo exchange, when one follows the period; each of the
// nGPU-1 partition boundaries then moves swapByte bytes through the host
// (2 transfers per boundary). It hands the periods over as runs of
// identical periods: onRun gets the launches of a run's first period as
// runs of consecutive launches of equal pass count on costs' device
// widths, each with the index of its first launch in the period
// (launches with no points are left out), and endPeriods then gets the
// index q of that period (spanAt), the number n of periods from q that
// launch exactly those pass counts, and how many of them, the first
// swaps, a halo exchange follows. The walk stops when endPeriods returns
// false. It allocates nothing.
//
// A launch's duration depends on its points only through its pass
// count, so a run is timed once, and a run of periods once. Neither is
// found by visiting every launch. Within a period, pieces splits a
// device's launches into ranges of monotone pass count, and runs
// binary-searches each range on the exact launchPoints. Across periods,
// repeats gallops and binary-searches the periods of one piece of the
// diagonal profile, comparing each period's launch runs with the first's.
func (s *gpuSchedule) walk(costs []hw.LaunchCost, onRun func(c int, r launchRun), endPeriods func(q, n, swaps int) bool) {
	pl := s.pl
	total := (pl.GPUDiags() + s.period - 1) / s.period
	var head [maxPeriodRuns]launchRun
	for q := 0; q < total; {
		p := s.spanAt(q)
		// Each run's first launch is the sum of its device's earlier
		// runs' lengths, launches with no points included.
		dev, c := int32(-1), 0
		emit := func(r launchRun) bool {
			if r.dev != dev {
				dev, c = r.dev, 0
			}
			if r.passes > 0 {
				onRun(c, r)
			}
			c += int(r.n)
			return true
		}
		nh := 0
		keep := func(r launchRun) bool {
			if nh == len(head) {
				return false
			}
			head[nh] = r
			nh++
			return true
		}
		n := 1
		if last := s.lastTwin(q); last > q && s.periodRuns(costs, p, keep) {
			n = s.repeats(costs, head[:nh], q, last)
			for _, r := range head[:nh] {
				emit(r)
			}
		} else {
			// No later period can repeat this one, or it has too many
			// runs to keep: it stands alone.
			s.periodRuns(costs, p, emit)
		}
		swaps := 0
		if s.nGPU >= 2 {
			swaps = n
			if q+n == total {
				swaps--
			}
		}
		if !endPeriods(q, n, swaps) {
			return
		}
		q += n
	}
}

// maxPeriodRuns bounds the launch runs of a period that walk keeps to
// compare with later periods. The modeled devices are wide enough that
// a period holds a few runs per device; a period with more stands
// alone.
const maxPeriodRuns = 32

// spanAt returns period q of the walk.
func (s *gpuSchedule) spanAt(q int) span {
	ds := s.pl.GLo + q*s.period
	return span{
		ds: ds, m: min(s.period, s.pl.GHi-ds+1),
		a0: grid.DiagStartRowRect(s.rows, s.cols, ds),
		l0: grid.DiagLenRect(s.rows, s.cols, ds),
	}
}

// periodRuns hands yield the launch runs of period p in walk order,
// device 0's first and each device's in launch order, launches with no
// points included as runs of 0 passes and two adjacent runs of a device
// with one pass count joined. The list spells out every launch's pass
// count, so two periods with equal lists launch the same pass counts. It
// stops, returning false, when yield returns false.
func (s *gpuSchedule) periodRuns(costs []hw.LaunchCost, p span, yield func(launchRun) bool) bool {
	var cur launchRun // the run not yet handed over
	push := func(r launchRun) bool {
		if cur.n > 0 && cur.dev == r.dev && cur.passes == r.passes {
			cur.n += r.n
			return true
		}
		if cur.n > 0 && !yield(cur) {
			return false
		}
		cur = r
		return true
	}
	var cuts [11]int
	nl := (p.m + s.gpuTile - 1) / s.gpuTile
	for dev := 0; dev < s.nGPU; dev++ {
		lc := &costs[dev]
		if nl <= 3 {
			// Too few launches to search: each is a run.
			for c := range nl {
				if !push(launchRun{dev: int32(dev), passes: int32(lc.Passes(s.launchPoints(p, dev, c, nil))), n: 1}) {
					return false
				}
			}
			continue
		}
		n := s.pieces(&cuts, p, dev, nl)
		for i := 0; i+1 < n; i++ {
			if !s.runs(p, dev, cuts[i], cuts[i+1], lc, push) {
				return false
			}
		}
	}
	return cur.n == 0 || yield(cur)
}

// lastTwin returns the last period that may launch what period q does.
// Between the breakpoints of the diagonal profile (the diagonal where
// the start row leaves row 0, cols-1, and where the end row reaches the
// last row, rows-1) the start row, the length and each device's
// partition cut of every diagonal of a period move linearly with the
// period, so each launch's pass count is monotone in the period index.
// A period holding a breakpoint strictly inside it, or the short last
// period, stands alone. Five or more devices are left out: their cuts,
// j*l0/nGPU rounded down, can make a device's share shrink as the
// diagonals grow.
func (s *gpuSchedule) lastTwin(q int) int {
	pl := s.pl
	last := pl.GPUDiags()/s.period - 1 // the last full period
	if s.nGPU > 4 {
		return q
	}
	ds := pl.GLo + q*s.period
	end := ds + s.period - 1
	for _, k := range [2]int{s.cols - 1, s.rows - 1} {
		switch {
		case k <= ds:
			// Every later period lies past the breakpoint too.
		case k < end:
			return q
		default:
			last = min(last, q+(k-end)/s.period)
		}
	}
	return max(last, q)
}

// repeats returns how many consecutive periods from q, up to period
// last, launch the pass counts head lists, period q's runs. Up to last
// each launch's pass count is monotone in the period index (lastTwin),
// so a period that launches what q does vouches for every period
// between: repeats gallops to a period that differs and binary-searches
// the gap, as runs does over launches.
func (s *gpuSchedule) repeats(costs []hw.LaunchCost, head []launchRun, q, last int) int {
	same := func(k int) bool {
		i := 0
		return s.periodRuns(costs, s.spanAt(k), func(r launchRun) bool {
			if i == len(head) || r != head[i] {
				return false
			}
			i++
			return true
		}) && i == len(head)
	}
	// same(lo) holds, and hi is past last or the nearest period known to
	// differ.
	lo, hi := q, last+1
	for step := 1; lo+step < hi; step *= 2 {
		if !same(lo + step) {
			hi = lo + step
			break
		}
		lo += step
	}
	for hi-lo > 1 {
		if mid := lo + (hi-lo)/2; same(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo - q + 1
}

// pieces fills cuts with the launch indices that split device dev's nl
// launches of period p into ranges of monotone pass count, in order from
// 0 to nl, and returns how many it filled. A device's row range on a
// diagonal (devRows) is the diagonal clipped to the period's partition
// cuts, so its length is piecewise linear in the period's diagonal
// offset k. The breakpoints are where the diagonal's start row leaves
// row 0 (diagonal cols-1) and its end row reaches the last row (diagonal
// rows-1), and, between partitions, where the device's lower cut minus
// its shrinking overlap meets row 0 and where its upper cut meets the
// diagonal's end. Each launch holding a breakpoint, and a last launch
// shorter than gpuTile, is cut out on its own; every other launch sums
// diagonals of one linear piece, so between the cuts the point count,
// and with it the pass count (liveFrac rounding included), is monotone.
func (s *gpuSchedule) pieces(cuts *[11]int, p span, dev, nl int) int {
	bps := [4]int{s.cols - 1 - p.ds, s.rows - 1 - p.ds, -1, -1}
	if s.nGPU > 1 {
		if dev > 0 {
			bps[2] = p.m - 1 - (p.a0 + dev*p.l0/s.nGPU)
		}
		if dev < s.nGPU-1 {
			bps[3] = p.a0 + (dev+1)*p.l0/s.nGPU - 1 - p.ds
		}
	}
	n := 1
	cuts[0] = 0
	for _, k := range bps {
		if k >= 0 && k < p.m {
			c := k / s.gpuTile
			cuts[n], cuts[n+1] = c, c+1
			n += 2
		}
	}
	if p.m%s.gpuTile != 0 {
		cuts[n] = nl - 1
		n++
	}
	cuts[n] = nl
	n++
	if n == 2 {
		return n
	}
	// Insertion sort, dropping duplicates.
	out := 0
	for i := 0; i < n; i++ {
		v := cuts[i]
		j := out
		for j > 0 && cuts[j-1] > v {
			j--
		}
		if j > 0 && cuts[j-1] == v {
			continue
		}
		copy(cuts[j+1:out+1], cuts[j:out])
		cuts[j] = v
		out++
	}
	return out
}

// runs hands yield device dev's runs over launches [c1, c2) of period
// p, a range on which the pass count on lc's device is monotone, runs of
// no points included. The range's last launch is read first: a run that
// reaches it ends the range. Otherwise, from each run's first launch,
// the search gallops to a launch of another pass count and
// binary-searches the gap between, so a run of n launches costs about
// 2*log2(n) evaluations, and a run of one launch a single one. It stops,
// returning false, when yield returns false.
func (s *gpuSchedule) runs(p span, dev, c1, c2 int, lc *hw.LaunchCost, yield func(launchRun) bool) bool {
	passes := func(c int) int { return lc.Passes(s.launchPoints(p, dev, c, nil)) }
	c, v := c1, passes(c1)
	last, lastV := c2-1, v
	if last > c {
		lastV = passes(last)
	}
	for v != lastV {
		// passes(lo) == v, and hi is the nearest launch known to differ.
		lo, hi, next := c, last, lastV
		for step := 1; lo+step < hi; step *= 2 {
			if q := passes(lo + step); q != v {
				hi, next = lo+step, q
				break
			}
			lo += step
		}
		for hi-lo > 1 {
			mid := lo + (hi-lo)/2
			if q := passes(mid); q == v {
				lo = mid
			} else {
				hi, next = mid, q
			}
		}
		if !yield(launchRun{dev: int32(dev), passes: int32(v), n: int32(lo - c + 1)}) {
			return false
		}
		c, v = hi, next
	}
	return yield(launchRun{dev: int32(dev), passes: int32(v), n: int32(c2 - c)})
}

// launchPoints returns the points launch c of device dev in period p is
// charged for: the cells of its row segments, scaled to the instance's
// live share when it is masked. When segs is not nil, the launch's
// non-empty row segments are appended to it.
func (s *gpuSchedule) launchPoints(p span, dev, c int, segs *[]diagSeg) int {
	points := 0
	for k := c * s.gpuTile; k < min((c+1)*s.gpuTile, p.m); k++ {
		if lo, hi := s.devRows(p.ds+k, dev, p.a0, p.l0, p.m-1-k); hi >= lo {
			points += hi - lo + 1
			if segs != nil {
				*segs = append(*segs, diagSeg{d: p.ds + k, rowLo: lo, rowHi: hi})
			}
		}
	}
	if s.liveFrac < 1 && points > 0 {
		// Charge the launch for the live share of its covered cells. The
		// functional segments still span every cell — masked kernels
		// write their dead region's zeros, so the simulated matrix stays
		// identical to a dense sweep — but timing reflects real work only.
		points = max(int(math.Round(float64(points)*s.liveFrac)), 1)
	}
	return points
}

// devRows returns the inclusive row range device dev computes on diagonal
// d. The period's partition cuts come from its first diagonal, which
// starts at row a0 and has l0 cells: device j's share starts at row
// a0 + j*l0/nGPU. A device below a partition boundary additionally
// computes a shrinking overlap of ov rows above its cut (the redundant
// halo computation of Section 2.1), because the wavefront dependencies
// point towards lower rows. With one device the whole diagonal is
// returned.
func (s *gpuSchedule) devRows(d, dev, a0, l0, ov int) (lo, hi int) {
	a := grid.DiagStartRowRect(s.rows, s.cols, d)
	b := a + grid.DiagLenRect(s.rows, s.cols, d) - 1
	if s.nGPU == 1 {
		return a, b
	}
	lo, hi = a, b
	if dev > 0 {
		lo = max(a0+dev*l0/s.nGPU-ov, a)
	}
	if dev < s.nGPU-1 {
		hi = min(a0+(dev+1)*l0/s.nGPU-1, b)
	}
	return lo, hi
}

// prepare checks that sys can satisfy a configuration's device demands
// and builds its plan.
func prepare(sys hw.System, inst plan.Instance, par plan.Params, opts Options) (*plan.Plan, error) {
	if need := par.GPUCount(); need > sys.MaxGPUs() {
		return nil, fmt.Errorf("engine: config needs %d GPU(s) but %s has %d usable",
			need, sys.Name, sys.MaxGPUs())
	}
	if opts.GPUs > len(sys.GPUs) {
		return nil, fmt.Errorf("engine: %d GPUs requested but %s has %d",
			opts.GPUs, sys.Name, len(sys.GPUs))
	}
	return plan.Build(inst, par)
}

// clock sums a run's virtual time in execution order and applies the
// censoring rule at each check point. It is the one place where a run's
// time is added up: Estimate drives its GPU phase from the live walk and
// a Sweep from a recorded tape, so both produce the same bits.
type clock struct {
	res         *Result
	thresholdNs float64
	gpuStart    float64 // RTimeNs when the GPU phase began
	swapNs      float64 // one halo exchange: 2 transfers per boundary
}

// over censors the run once it has passed the threshold.
func (c *clock) over() bool {
	if c.thresholdNs > 0 && c.res.RTimeNs > c.thresholdNs {
		c.res.RTimeNs = c.thresholdNs
		c.res.Censored = true
		return true
	}
	return false
}

// cpuPhase records a CPU phase of ns in *phase and adds it to the clock;
// it reports whether the run is censored.
func (c *clock) cpuPhase(phase *float64, ns float64) bool {
	*phase = ns
	c.res.RTimeNs += ns
	return c.over()
}

// startGPU adds the GPU phase's device start-up, which is concurrent
// across devices, and its input transfers, which serialize on the link.
func (c *clock) startGPU(sys hw.System, sch *gpuSchedule) {
	res := c.res
	c.gpuStart = res.RTimeNs
	// Identical models per system make max == single value, but take max
	// for generality.
	var startup float64
	for dev := 0; dev < sch.nGPU; dev++ {
		startup = math.Max(startup, sys.GPUs[dev].StartupNs)
		res.StartupNs += sys.GPUs[dev].StartupNs
	}
	res.RTimeNs += startup
	for dev := 0; dev < sch.nGPU; dev++ {
		x := sys.Link.XferNs(sch.xferIn())
		res.XferNs += x
		res.RTimeNs += x
	}
	if sch.nGPU >= 2 {
		c.swapNs = float64(2*(sch.nGPU-1)) * sys.Link.XferNs(sch.swapByte)
	}
}

// replay adds a recorded tape's swap periods in order: each period's
// time, then, for the first swaps periods, the halo exchange that
// follows it. It reports whether the run is censored.
func (c *clock) replay(ps []periodNs, swaps int) bool {
	for _, p := range ps {
		c.periods(p.ns, p.n, swaps)
		if c.res.Censored {
			return true
		}
		swaps -= p.n
	}
	return false
}

// periods adds n periods lasting ns each, the first swaps of them
// followed by a halo exchange, with the censoring check at each period's
// end, and returns how many it added: all n unless the run is censored
// before the last. The running sums stay in locals rather than being
// stored through res at every period.
func (c *clock) periods(ns float64, n, swaps int) int {
	res := c.res
	rt, swapNs, nSwaps := res.RTimeNs, res.SwapNs, res.Swaps
	for k := range n {
		rt += ns
		if k < swaps {
			swapNs += c.swapNs
			rt += c.swapNs
			nSwaps++
		}
		if c.thresholdNs > 0 && rt > c.thresholdNs {
			res.RTimeNs, res.SwapNs, res.Swaps = rt, swapNs, nSwaps
			c.over()
			return k + 1
		}
	}
	res.RTimeNs, res.SwapNs, res.Swaps = rt, swapNs, nSwaps
	return n
}

// finishGPU adds the output transfers and closes the GPU phase; it
// reports whether the run is censored.
func (c *clock) finishGPU(sys hw.System, sch *gpuSchedule) bool {
	res := c.res
	for dev := 0; dev < sch.nGPU; dev++ {
		x := sys.Link.XferNs(sch.xferOut(dev))
		res.XferNs += x
		res.RTimeNs += x
	}
	res.RedundantPoints = sch.pl.RedundantPoints()
	res.GPUNs = res.RTimeNs - c.gpuStart
	return c.over()
}

// meter times a walk's launches. Devices run each period in lockstep: the
// period lasts as long as its busiest device (span), each device's time
// being the sum of its launches (devNs). It also sums the breakdown's
// launch counters.
type meter struct {
	costs       []hw.LaunchCost // per device, bound once rather than per launch
	last        []timedRun      // per device, its last timed run
	syncSteps   int
	inflate     float64
	span, devNs float64
	dev         int

	kernels             int
	launchNs, computeNs float64
}

// timedRun is the duration of one launch of passes SIMT passes.
type timedRun struct {
	passes int32
	ns     float64
}

// launchCosts binds sys's first n devices to inst's granularity,
// appending to dst.
func launchCosts(dst []hw.LaunchCost, sys hw.System, inst plan.Instance, n int) []hw.LaunchCost {
	for _, g := range sys.GPUs[:n] {
		dst = append(dst, g.LaunchCost(inst.TSize, sys.CPU.PerIterNs, inst.DSize))
	}
	return dst
}

// newMeter returns a meter for the devices of schedule sch, whose launch
// costs are costs; it appends each device's memo of its last timed run
// to last.
func newMeter(sch *gpuSchedule, costs []hw.LaunchCost, last []timedRun) meter {
	for range sch.nGPU {
		last = append(last, timedRun{passes: -1})
	}
	return meter{costs: costs, last: last, syncSteps: sch.syncSteps, inflate: sch.inflate, dev: -1}
}

// duration returns the duration of one launch of run r. It is the one
// place a launch run is timed, for the live walk and a Sweep's replay
// alike. Each device keeps its last timed run: a device's first run in
// a period often has the pass count of its last run in the period
// before, and is then not timed again.
func (m *meter) duration(r launchRun) float64 {
	if l := m.last[r.dev]; l.passes == r.passes {
		return l.ns
	}
	return m.time(r)
}

// time computes the duration of one launch of run r and keeps it as its
// device's last timed run. It is duration's miss path, kept apart so
// that duration inlines and a repeated pass count costs no call.
func (m *meter) time(r launchRun) float64 {
	c := &m.costs[r.dev]
	ns := c.DurationNs(int(r.passes)*c.Width(), m.syncSteps, m.inflate)
	m.last[r.dev] = timedRun{passes: r.passes, ns: ns}
	return ns
}

// add accounts n launches on device dev lasting dur each. It is the only
// place a launch is folded into a period, for the live walk and a
// Sweep's replay alike. The sums run launch by launch in locals.
func (m *meter) add(dev int, dur float64, n int) {
	if dev != m.dev {
		m.span = math.Max(m.span, m.devNs)
		m.devNs = 0
		m.dev = dev
	}
	launchNs := m.costs[dev].LaunchNs
	computeNs := dur - launchNs
	devNs, lsum, csum := m.devNs, m.launchNs, m.computeNs
	for range n {
		devNs += dur
		lsum += launchNs
		csum += computeNs
	}
	m.devNs, m.launchNs, m.computeNs = devNs, lsum, csum
	m.kernels += n
}

// endPeriod returns the finished period's duration and resets the span.
func (m *meter) endPeriod() float64 {
	ns := math.Max(m.span, m.devNs)
	m.span, m.devNs, m.dev = 0, 0, -1
	return ns
}

// fold copies the launch counters into a breakdown.
func (m *meter) fold(res *Result) {
	res.Kernels, res.LaunchNs, res.ComputeNs = m.kernels, m.launchNs, m.computeNs
}

// countedRun is n launches as add counts each: its launch overhead and
// the rest of its duration.
type countedRun struct {
	n                   int
	launchNs, computeNs float64
}

// repeat counts the launches of a period, given as its runs, times more
// times. The counters are float sums in walk order, so a repeated
// period's launches are added one by one, as add adds them.
func (m *meter) repeat(runs []countedRun, times int) {
	kernels, launchNs, computeNs := m.kernels, m.launchNs, m.computeNs
	for range times {
		for _, r := range runs {
			kernels += r.n
			for range r.n {
				launchNs += r.launchNs
				computeNs += r.computeNs
			}
		}
	}
	m.kernels, m.launchNs, m.computeNs = kernels, launchNs, computeNs
}

// Estimate models a run of inst with parameters par on sys and returns
// its virtual time and breakdown without computing any data.
func Estimate(sys hw.System, inst plan.Instance, par plan.Params, opts Options) (Result, error) {
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
		// Systems have a handful of devices, so the cost table and the
		// memo of timed runs stay on the stack. The first period of a run
		// of periods keeps its runs to count the launches of the periods
		// repeating it.
		var table [4]hw.LaunchCost
		var memo [4]timedRun
		m := newMeter(&sch, launchCosts(table[:0], sys, inst, sch.nGPU), memo[:0])
		var period [maxPeriodRuns]countedRun
		nr := 0
		sch.walk(m.costs, func(_ int, r launchRun) {
			ns := m.duration(r)
			m.add(int(r.dev), ns, int(r.n))
			// walk repeats only periods whose runs it kept, no more
			// than maxPeriodRuns.
			if nr < len(period) {
				launchNs := m.costs[r.dev].LaunchNs
				period[nr] = countedRun{n: int(r.n), launchNs: launchNs, computeNs: ns - launchNs}
				nr++
			}
		}, func(_, n, swaps int) bool {
			m.repeat(period[:nr], clk.periods(m.endPeriod(), n, swaps)-1)
			nr = 0
			return !res.Censored
		})
		m.fold(&res)
		if res.Censored || clk.finishGPU(sys, &sch) {
			return res, nil
		}
	}
	clk.cpuPhase(&res.Phase3Ns, cpuPhaseNs(sys, inst, par.CPUTile, pl.P3Lo, pl.P3Hi))
	return res, nil
}

// Simulate executes a functional run of kernel k over the shape of inst
// with parameters par on the modeled system: real cell values are
// computed via the simulated OpenCL runtime and CPU phases, and the
// returned result carries the virtual time of the discrete-event
// simulation. The granularity parameters (TSize, DSize) are always taken
// from the kernel.
func Simulate(sys hw.System, inst plan.Instance, k kernels.Kernel, par plan.Params, opts Options) (Result, *grid.Grid, error) {
	inst.TSize, inst.DSize = k.TSize(), k.DSize()
	pl, err := prepare(sys, inst, par, opts)
	if err != nil {
		return Result{}, nil, err
	}
	res := Result{Plan: pl}
	res.FrontierSteps = inst.NumDiags()
	rows, cols := inst.Shape()
	g := grid.NewRect(rows, cols, k.DSize())
	p := simcl.NewPlatform(sys)
	p.Functional = true
	if opts.CollectTrace {
		p.Trace = &simcl.Trace{}
		res.Trace = p.Trace
	}
	eng := p.Eng

	sch, gpu := buildGPUSchedule(pl, opts.GPUs)
	var steps []func(next func())

	// Phase 1: leading CPU triangle.
	if pl.P1Hi >= pl.P1Lo {
		dur := cpuPhaseNs(sys, inst, par.CPUTile, pl.P1Lo, pl.P1Hi)
		res.Phase1Ns = dur
		steps = append(steps, func(next func()) {
			p.HostCompute(dur, func() {
				// A dense diagonal frontier cannot dead-end, so the
				// frontier run never errors here.
				_ = cpuexec.RunSerialFrontier(k, g, grid.NewDiagRangeFrontier(rows, cols, pl.P1Lo, pl.P1Hi))
				next()
			})
		})
	}

	// Phase 2: the offloaded band.
	if gpu {
		var gpuT0 float64
		steps = append(steps,
			func(next func()) {
				gpuT0 = eng.Now()
				arrive := eng.Barrier(sch.nGPU, next)
				for dev := 0; dev < sch.nGPU; dev++ {
					p.Devs[dev].Start(arrive)
				}
			},
			func(next func()) {
				arrive := eng.Barrier(sch.nGPU, next)
				for dev := 0; dev < sch.nGPU; dev++ {
					p.Devs[dev].EnqueueXfer(sch.xferIn(), arrive)
				}
			})
		// Each period enqueues its launches behind one barrier; a halo
		// exchange, when due, follows as its own step. A run of periods
		// launches its first period's runs, each expanded into its
		// launches' row segments on every period of the run.
		type launch struct {
			dev, points int
			segs        []diagSeg
		}
		type firstRun struct {
			c int
			r launchRun
		}
		var runs []firstRun
		costs := launchCosts(nil, sys, inst, sch.nGPU)
		sch.walk(costs, func(c int, r launchRun) {
			runs = append(runs, firstRun{c, r})
		}, func(q, n, swaps int) bool {
			for j := range n {
				sp := sch.spanAt(q + j)
				var period []launch
				for _, fr := range runs {
					for i := fr.c; i < fr.c+int(fr.r.n); i++ {
						l := launch{dev: int(fr.r.dev)}
						l.points = sch.launchPoints(sp, l.dev, i, &l.segs)
						period = append(period, l)
					}
				}
				steps = append(steps, func(next func()) {
					arrive := eng.Barrier(len(period), next)
					for _, l := range period {
						segs := l.segs
						p.Devs[l.dev].EnqueueKernel(simcl.KernelReq{
							Points:    l.points,
							TSize:     inst.TSize,
							DSize:     inst.DSize,
							SyncSteps: sch.syncSteps,
							Inflate:   sch.inflate,
							Body: func() {
								for _, s := range segs {
									for r := s.rowLo; r <= s.rowHi; r++ {
										k.Compute(g, r, s.d-r)
									}
								}
							},
						}, arrive)
					}
				})
				if j < swaps {
					steps = append(steps, func(next func()) {
						// At each partition boundary the upper device's edge
						// rows go to the host and on to the device below; the
						// boundary exchanges chain on the shared link.
						res.Swaps++
						var chain func(b int)
						chain = func(b int) {
							if b >= sch.nGPU-1 {
								next()
								return
							}
							p.Devs[b].EnqueueXfer(sch.swapByte, func() {
								p.Devs[b+1].EnqueueXfer(sch.swapByte, func() { chain(b + 1) })
							})
						}
						chain(0)
					})
				}
			}
			runs = runs[:0]
			return true
		})
		steps = append(steps, func(next func()) {
			arrive := eng.Barrier(sch.nGPU, func() {
				res.GPUNs = eng.Now() - gpuT0
				next()
			})
			for dev := 0; dev < sch.nGPU; dev++ {
				p.Devs[dev].EnqueueXfer(sch.xferOut(dev), arrive)
			}
		})
	}

	// Phase 3: trailing CPU triangle.
	if pl.P3Hi >= pl.P3Lo {
		dur := cpuPhaseNs(sys, inst, par.CPUTile, pl.P3Lo, pl.P3Hi)
		res.Phase3Ns = dur
		steps = append(steps, func(next func()) {
			p.HostCompute(dur, func() {
				_ = cpuexec.RunSerialFrontier(k, g, grid.NewDiagRangeFrontier(rows, cols, pl.P3Lo, pl.P3Hi))
				next()
			})
		})
	}

	eng.Series(steps, nil)
	res.RTimeNs = eng.Run()

	// Fold device statistics into the breakdown.
	if gpu {
		for dev := 0; dev < sch.nGPU; dev++ {
			st := p.Devs[dev].Stats
			res.Kernels += st.Kernels
			res.StartupNs += st.StartupNs
			res.LaunchNs += st.LaunchNs
			res.ComputeNs += st.KernelNs
		}
		for dev := 0; dev < sch.nGPU; dev++ {
			res.XferNs += sys.Link.XferNs(sch.xferIn()) + sys.Link.XferNs(sch.xferOut(dev))
		}
		res.SwapNs = float64(2*res.Swaps*(sch.nGPU-1)) * sys.Link.XferNs(sch.swapByte)
		res.RedundantPoints = pl.RedundantPoints()
	}
	return res, g, nil
}

// Reference computes a rows x cols grid serially on the host, for
// verifying simulated results.
func Reference(rows, cols int, k kernels.Kernel) *grid.Grid {
	g := grid.NewRect(rows, cols, k.DSize())
	cpuexec.RunSerial(k, g)
	return g
}

// CPUOnlyParams returns the all-CPU configuration with the given tile.
func CPUOnlyParams(ct int) plan.Params {
	return plan.Params{CPUTile: ct, Band: -1, GPUTile: 1, Halo: -1}
}

// GPUOnlyParamsFor returns the configuration that offloads every
// diagonal of an instance of any shape to a single GPU.
func GPUOnlyParamsFor(inst plan.Instance) plan.Params {
	return plan.Params{CPUTile: 1, Band: inst.MaxUsefulBand(), GPUTile: 1, Halo: -1}
}
