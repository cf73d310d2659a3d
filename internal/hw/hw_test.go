package hw

import (
	"testing"
	"testing/quick"
)

func TestMissRateShape(t *testing.T) {
	// The tiling curve must fall from untiled to ~8-10 and rise again for
	// oversized tiles.
	if MissRate(1) != 1.0 {
		t.Error("untiled miss rate must be 1")
	}
	prev := MissRate(1)
	for _, ct := range []int{2, 4, 8, 10} {
		m := MissRate(ct)
		if m > prev {
			t.Errorf("miss rate must be non-increasing up to ct=10, rose at %d", ct)
		}
		prev = m
	}
	if MissRate(32) <= MissRate(10) {
		t.Error("oversized tiles must pay more than the sweet spot")
	}
}

func TestPointNsMonotoneInTsize(t *testing.T) {
	c := I7_2600K().CPU
	f := func(a, b uint16) bool {
		t1, t2 := float64(a%12000)+1, float64(b%12000)+1
		if t1 > t2 {
			t1, t2 = t2, t1
		}
		return c.PointNs(t1, 8, 16) <= c.PointNs(t2, 8, 16)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMemPenaltyGrowsWithElemSize(t *testing.T) {
	c := I3_540().CPU
	if c.MemPenaltyNs(4, 48) <= c.MemPenaltyNs(4, 16) {
		t.Error("larger elements must cost more memory time")
	}
}

func TestGPUWidth(t *testing.T) {
	if w := I3_540().GPUs[0].Width(); w != 480 {
		t.Errorf("GTX 480 width = %d, want 480 (15 CUs x 32)", w)
	}
	if w := I7_2600K().GPUs[0].Width(); w != 512 {
		t.Errorf("GTX 590 width = %d, want 512", w)
	}
	if w := I7_3820().GPUs[0].Width(); w != 448 {
		t.Errorf("Tesla width = %d, want 448", w)
	}
}

func TestPaddedPoints(t *testing.T) {
	g := I3_540().GPUs[0] // width 480
	for _, tc := range []struct{ in, want int }{
		{1, 480}, {480, 480}, {481, 960}, {960, 960}, {1000, 1440},
	} {
		if got := g.PaddedPoints(tc.in); got != tc.want {
			t.Errorf("PaddedPoints(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestEffFactorShrinksWithDsize(t *testing.T) {
	for _, s := range Systems() {
		for _, g := range s.GPUs {
			if g.EffFactor(5) >= g.EffFactor(1) {
				t.Errorf("%s/%s: dsize=5 must erode throughput", s.Name, g.Name)
			}
			if g.EffFactor(0) != g.BaseFactor {
				t.Errorf("%s/%s: dsize=0 must give the base factor", s.Name, g.Name)
			}
		}
	}
}

func TestKernelNsScaling(t *testing.T) {
	g := I7_2600K().GPUs[0]
	pi := I7_2600K().CPU.PerIterNs
	// Doubling tsize doubles kernel time; padding makes short diagonals
	// cost a full pass.
	c100, c200 := g.LaunchCost(100, pi, 1), g.LaunchCost(200, pi, 1)
	a := c100.kernelNs(512)
	b := c200.kernelNs(512)
	if b != 2*a {
		t.Errorf("kernel time must scale linearly with tsize: %v vs %v", a, b)
	}
	if c100.kernelNs(1) != a {
		t.Error("a 1-point kernel must cost a full SIMT pass")
	}
}

func TestXferNs(t *testing.T) {
	l := LinkModel{LatencyNs: 1000, BytesPerNs: 2}
	if got := l.XferNs(4000); got != 3000 {
		t.Errorf("XferNs = %v, want 3000", got)
	}
	if got := l.XferNs(0); got != 1000 {
		t.Errorf("zero-byte transfer must still pay latency, got %v", got)
	}
}

func TestSystemsTable4(t *testing.T) {
	sys := Systems()
	if len(sys) != 3 {
		t.Fatalf("want 3 systems, got %d", len(sys))
	}
	// Table 4 row checks.
	if sys[0].Name != "i3-540" || len(sys[0].GPUs) != 1 {
		t.Error("i3-540 must be the single-GPU system")
	}
	if sys[1].Name != "i7-2600K" || sys[1].MaxGPUs() != 2 {
		t.Error("i7-2600K must expose two usable GPUs")
	}
	if sys[2].Name != "i7-3820" || sys[2].GPUs[0].CUs != 14 {
		t.Error("i7-3820 must carry 14-CU Teslas")
	}
	for _, s := range sys {
		if s.CPU.EffParallel <= 1 || s.CPU.EffParallel > float64(s.CPU.Cores) {
			t.Errorf("%s: effective parallelism %v out of range", s.Name, s.CPU.EffParallel)
		}
	}
}

func TestCPURelativeSpeeds(t *testing.T) {
	// The i3's cores must be the slowest and the i7-3820's the fastest —
	// this ordering drives the paper's per-system threshold differences.
	i3, i7a, i7b := I3_540().CPU, I7_2600K().CPU, I7_3820().CPU
	if !(i3.PerIterNs > i7a.PerIterNs && i7a.PerIterNs > i7b.PerIterNs) {
		t.Errorf("core speed ordering violated: %v, %v, %v",
			i3.PerIterNs, i7a.PerIterNs, i7b.PerIterNs)
	}
}

func TestByName(t *testing.T) {
	if s, ok := ByName("i7-2600K"); !ok || s.Name != "i7-2600K" {
		t.Error("ByName failed for existing system")
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ByName must fail for unknown system")
	}
}

func TestMaxGPUsCap(t *testing.T) {
	s := I7_2600K()
	s.GPUs = append(s.GPUs, s.GPUs[0], s.GPUs[0])
	if s.MaxGPUs() != 2 {
		t.Error("gpu-count must cap at 2 like the paper")
	}
}

func TestStringer(t *testing.T) {
	if got := I3_540().String(); got == "" {
		t.Error("String must be non-empty")
	}
}

func TestWithGPUCount(t *testing.T) {
	wide := WithGPUCount(I7_2600K(), 4)
	if len(wide.GPUs) != 4 {
		t.Fatalf("want 4 GPUs, got %d", len(wide.GPUs))
	}
	if wide.MaxGPUs() != 2 {
		t.Error("tuning-space cap must stay at 2")
	}
	if got := WithGPUCount(I3_540(), 0); len(got.GPUs) != 1 {
		t.Error("n<1 must be a no-op")
	}
}
