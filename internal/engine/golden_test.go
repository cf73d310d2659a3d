package engine_test

// Golden hashes of the analytic estimator. The exhaustive search trains
// the tuner, the serving layer reports Estimate's runtime to clients and
// the efficiency metric divides by it, so any change to the estimator's
// arithmetic — even a reordered floating-point sum — must be deliberate.
// These tests pin every bit of its output: a refactor that keeps the
// hashes keeps trained models, served runtimes and efficiencies exactly.

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/hw"
	"repro/internal/plan"
)

// skipOffAMD64 skips golden checks where the hashes do not apply: the Go
// spec lets a compiler fuse x*y+z into one rounding, which gc does on
// arm64, ppc64 and s390x, so those builds differ in low-order bits. The
// hashes are pinned for amd64, where every operation rounds separately.
func skipOffAMD64(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden estimator hashes are pinned for amd64, not %s", runtime.GOARCH)
	}
}

type goldenHash struct{ h hash.Hash64 }

func newGoldenHash() goldenHash { return goldenHash{fnv.New64a()} }

func (g goldenHash) int(v int) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(int64(v)))
	g.h.Write(b[:])
}

func (g goldenHash) float(v float64) { g.int(int(math.Float64bits(v))) }

func (g goldenHash) bool(v bool) {
	if v {
		g.int(1)
	} else {
		g.int(0)
	}
}

func (g goldenHash) inst(in plan.Instance) {
	g.int(in.Dim)
	g.int(in.Rows)
	g.int(in.Cols)
	g.float(in.TSize)
	g.int(in.DSize)
	g.int(in.LiveCells)
}

func (g goldenHash) par(p plan.Params) {
	g.int(p.CPUTile)
	g.int(p.Band)
	g.int(p.GPUTile)
	g.int(p.Halo)
}

// result hashes every modeled field of an estimate.
func (g goldenHash) result(r engine.Result) {
	g.float(r.RTimeNs)
	g.bool(r.Censored)
	b := r.Breakdown
	for _, f := range []float64{b.Phase1Ns, b.GPUNs, b.Phase3Ns, b.StartupNs, b.LaunchNs, b.ComputeNs, b.XferNs, b.SwapNs} {
		g.float(f)
	}
	for _, n := range []int{b.Kernels, b.Swaps, b.RedundantPoints, b.FrontierSteps} {
		g.int(n)
	}
}

func TestGoldenExhaustiveQuickSpace(t *testing.T) {
	skipOffAMD64(t)
	want := map[string]uint64{
		"i3-540":   0xb105c17e0d5037e8,
		"i7-2600K": 0xbb6e18118427a538,
		"i7-3820":  0x67e5760fd276998b,
	}
	for _, sys := range hw.Systems() {
		sr, err := core.Exhaustive(sys, core.QuickSpace(), core.SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		g := newGoldenHash()
		for _, ir := range sr.Instances {
			g.inst(ir.Inst)
			g.float(ir.SerialNs)
			for _, p := range ir.Points {
				g.inst(p.Inst)
				g.par(p.Par)
				g.float(p.RTimeNs)
				g.bool(p.Censored)
			}
		}
		if got := g.h.Sum64(); got != want[sys.Name] {
			t.Errorf("%s: quick-space search hash %#x, want %#x (%d points)",
				sys.Name, got, want[sys.Name], sr.Evaluations())
		}
	}
}

// goldenSweep is one instance estimated at every quick-space
// configuration, with full breakdowns hashed.
type goldenSweep struct {
	name string
	sys  hw.System
	inst plan.Instance
	opts engine.Options
	want uint64
}

func TestGoldenEstimateBreakdowns(t *testing.T) {
	skipOffAMD64(t)
	wide4 := hw.WithGPUCount(hw.I7_2600K(), 4)
	censor := engine.Options{ThresholdNs: 1.9e9}
	for _, c := range []goldenSweep{
		{"dual-gpu", hw.I7_2600K(), plan.Instance{Dim: 1900, TSize: 2000, DSize: 1}, engine.Options{}, 0x2a0419b1e0ce651c},
		{"four-gpu", wide4, plan.Instance{Dim: 1500, TSize: 3000, DSize: 1}, engine.Options{GPUs: 4}, 0x93a8d87501d36f13},
		{"three-gpu", wide4, plan.Instance{Dim: 700, TSize: 500, DSize: 3}, engine.Options{GPUs: 3}, 0x1f6954f0ca0bd51e},
		{"masked", hw.I7_3820(), plan.Instance{Dim: 1100, TSize: 1000, DSize: 1, LiveCells: 1100 * 1101 / 2}, engine.Options{}, 0x42eaf5c00c221330},
		{"masked-sparse", hw.I3_540(), plan.Instance{Dim: 500, TSize: 4000, DSize: 5, LiveCells: 1234}, engine.Options{}, 0x1af42f9ed54cc130},
		{"rect-wide", hw.I7_3820(), plan.Instance{Rows: 600, Cols: 1400, TSize: 1000, DSize: 1}, engine.Options{}, 0x3b91bd719ef1f794},
		{"rect-tall", hw.I3_540(), plan.Instance{Rows: 1400, Cols: 600, TSize: 100, DSize: 5}, engine.Options{}, 0x5d6756cede621d71},
		{"censored", hw.I7_2600K(), plan.Instance{Dim: 1900, TSize: 2000, DSize: 1}, censor, 0x259465976f05849b},
		{"censored-90s", hw.I3_540(), plan.Instance{Dim: 3100, TSize: 12000, DSize: 5},
			engine.Options{ThresholdNs: engine.DefaultThresholdNs}, 0xe649496236549c09},
		// Halo-0 dual-GPU schedules swap after every diagonal, so at the
		// largest quick-space dim their periods repeat the most.
		{"dual-gpu-2700", hw.I7_2600K(), plan.Instance{Dim: 2700, TSize: 1000, DSize: 1}, engine.Options{}, 0x77cb7d85faa4d91f},
	} {
		configs := core.QuickSpace().Configs(c.inst, c.sys)
		// A Sweep's time-only entry point must give Estimate's runtime and
		// censoring bits at every configuration.
		var sw engine.Sweep
		sw.Reset(c.sys, c.inst, c.opts)
		g := newGoldenHash()
		censored := 0
		for _, par := range configs {
			r, err := engine.Estimate(c.sys, c.inst, par, c.opts)
			if err != nil {
				t.Fatalf("%s %v: %v", c.name, par, err)
			}
			ns, cens, err := sw.RTime(par)
			if err != nil {
				t.Fatalf("%s RTime %v: %v", c.name, par, err)
			}
			if math.Float64bits(ns) != math.Float64bits(r.RTimeNs) || cens != r.Censored {
				t.Errorf("%s RTime %v: %v censored=%v, Estimate %v censored=%v",
					c.name, par, ns, cens, r.RTimeNs, r.Censored)
			}
			g.par(par)
			g.result(r)
			if r.Censored {
				censored++
			}
		}
		if c.opts.ThresholdNs > 0 && (censored == 0 || censored == len(configs)) {
			t.Errorf("%s: %d of %d configs censored; the case must cover both outcomes",
				c.name, censored, len(configs))
		}
		if got := g.h.Sum64(); got != c.want {
			t.Errorf("%s: breakdown hash %#x, want %#x (%d configs)",
				c.name, got, c.want, len(configs))
		}
	}
}
