package kernels

import (
	"testing"

	"repro/internal/grid"
)

// sweep runs a kernel over the whole grid in row-major order (which
// respects the up/left dependency cone).
func sweep(k Kernel, dim int) *grid.Grid {
	g := grid.NewRect(dim, dim, k.DSize())
	for r := 0; r < dim; r++ {
		for c := 0; c < dim; c++ {
			k.Compute(g, r, c)
		}
	}
	return g
}

// sweepDiag runs a kernel in anti-diagonal order.
func sweepDiag(k Kernel, dim int) *grid.Grid {
	g := grid.NewRect(dim, dim, k.DSize())
	for d := 0; d < grid.NumDiagsRect(dim, dim); d++ {
		for i := 0; i < grid.DiagLenRect(dim, dim, d); i++ {
			r, c := grid.DiagCellRect(dim, dim, d, i)
			k.Compute(g, r, c)
		}
	}
	return g
}

func TestOrderIndependence(t *testing.T) {
	// Row-major and diagonal-major sweeps must produce identical grids for
	// every kernel: the fundamental property the hybrid executor needs.
	for _, k := range []Kernel{
		NewSynthetic(3, 2),
		NewNash(2),
		NewSeqCompare(),
		NewKnapsack(20),
	} {
		a := sweep(k, 20)
		b := sweepDiag(k, 20)
		if !a.Equal(b) {
			t.Errorf("%s: row-major and diagonal sweeps differ", k.Name())
		}
	}
}

func TestSyntheticGranularityScales(t *testing.T) {
	s := NewSynthetic(100, 1)
	if s.TSize() != 100 {
		t.Errorf("TSize = %v, want 100", s.TSize())
	}
	if NewSynthetic(0, 0).Iters != 1 {
		t.Error("iters must clamp to >= 1")
	}
}

func TestSyntheticDependsOnNeighbours(t *testing.T) {
	// Changing an upstream cell must change downstream cells: guards
	// against a kernel that ignores its inputs (which would make ordering
	// bugs invisible).
	k := NewSynthetic(2, 1)
	g1 := sweep(k, 8)
	g2 := grid.NewRect(8, 8, 1)
	for r := 0; r < 8; r++ {
		for c := 0; c < 8; c++ {
			if r == 0 && c == 0 {
				g2.SetA(0, 0, 999) // corrupt the seed cell
				continue
			}
			k.Compute(g2, r, c)
		}
	}
	if g1.A(7, 7) == g2.A(7, 7) {
		t.Error("corner cell insensitive to upstream change")
	}
}

func TestNashPaperMapping(t *testing.T) {
	n := NewNash(1)
	if n.TSize() != 750 {
		t.Errorf("one Nash round must map to tsize 750, got %v", n.TSize())
	}
	if n.DSize() != 4 {
		t.Errorf("Nash dsize must be 4, got %d", n.DSize())
	}
	if NewNash(3).TSize() != 2250 {
		t.Error("TSize must scale with rounds")
	}
}

func TestNashPayoffsBounded(t *testing.T) {
	// The damped best-response update must not diverge.
	g := sweep(NewNash(4), 16)
	for r := 0; r < 16; r++ {
		for c := 0; c < 16; c++ {
			p := g.Float(r, c, 0)
			if p != p || p > 1e6 || p < -1e6 {
				t.Fatalf("payoff diverged at (%d,%d): %v", r, c, p)
			}
		}
	}
}

func TestSeqComparePaperMapping(t *testing.T) {
	s := NewSeqCompare()
	if s.TSize() != 0.5 {
		t.Errorf("seqcompare tsize must be 0.5, got %v", s.TSize())
	}
	if s.DSize() != 0 {
		t.Errorf("seqcompare dsize must be 0, got %d", s.DSize())
	}
}

func TestSeqCompareKnownAlignment(t *testing.T) {
	// Align "ACGT" with itself: the best local alignment is the full
	// match, scoring 4 * Match = 8.
	s := NewSeqCompareWith([]byte("ACGT"), []byte("ACGT"))
	g := grid.NewRect(4, 4, 0)
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			s.Compute(g, r, c)
		}
	}
	if got := s.Score(g); got != 8 {
		t.Errorf("self-alignment score = %d, want 8", got)
	}
}

func TestSeqCompareScoresNonNegative(t *testing.T) {
	g := sweep(NewSeqCompare(), 40)
	for i, h := range g.IntA {
		if h < 0 {
			t.Fatalf("negative Smith–Waterman score at index %d", i)
		}
	}
}

func TestSeqCompareRunningMaxMonotone(t *testing.T) {
	g := sweep(NewSeqCompare(), 24)
	// B must dominate A everywhere and be monotone along rows and columns.
	for r := 0; r < 24; r++ {
		for c := 0; c < 24; c++ {
			if g.B(r, c) < g.A(r, c) {
				t.Fatalf("running max below score at (%d,%d)", r, c)
			}
			if c > 0 && g.B(r, c) < g.B(r, c-1) {
				t.Fatalf("running max decreased along row at (%d,%d)", r, c)
			}
		}
	}
}

func TestKnapsackOptimal(t *testing.T) {
	// Small instance with a known optimum: items (w,v) = (1,1),(2,4),(3,5)
	// capacity 5 -> best is items 2+3 = 9.
	k := &Knapsack{Weights: []int64{1, 2, 3}, Values: []int64{1, 4, 5}}
	dim := 6 // capacities 0..5 in columns, 3 item rows used
	g := grid.NewRect(dim, dim, 0)
	for r := 0; r < 3; r++ {
		for c := 0; c < dim; c++ {
			k.Compute(g, r, c)
		}
	}
	if got := g.A(2, 5); got != 9 {
		t.Errorf("knapsack optimum = %d, want 9", got)
	}
}

func TestKnapsackMonotoneInCapacity(t *testing.T) {
	g := sweep(NewKnapsack(30), 30)
	for r := 0; r < 30; r++ {
		for c := 1; c < 30; c++ {
			if g.A(r, c) < g.A(r, c-1) {
				t.Fatalf("value decreased with capacity at (%d,%d)", r, c)
			}
		}
	}
}

func TestKernelNames(t *testing.T) {
	for _, tc := range []struct {
		k    Kernel
		want string
	}{
		{NewSeqCompare(), "seqcompare"},
		{NewKnapsack(4), "knapsack"},
	} {
		if tc.k.Name() != tc.want {
			t.Errorf("Name = %q, want %q", tc.k.Name(), tc.want)
		}
	}
}
