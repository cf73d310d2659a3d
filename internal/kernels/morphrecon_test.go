package kernels

import (
	"testing"

	"repro/internal/grid"
)

// morphReconReference computes the reconstruction independently with a
// plain row-major scan (a dependency-respecting order for the causal
// W/N/NW cone), without going through the Kernel interface.
func morphReconReference(m *MorphRecon, rows, cols int) []int64 {
	out := make([]int64, rows*cols)
	at := func(r, c int) int64 {
		if r < 0 || c < 0 {
			return 0
		}
		return out[r*cols+c]
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if !m.Open(r, c) {
				continue
			}
			best := int64(0)
			for _, p := range [][2]int{{r, c - 1}, {r - 1, c}, {r - 1, c - 1}} {
				if v := at(p[0], p[1]) - m.Decay; v > best {
					best = v
				}
			}
			if m.Marker(r, c) {
				if cap := m.Cap(r, c); cap > best {
					best = cap
				}
			}
			if cap := m.Cap(r, c); best > cap {
				best = cap
			}
			out[r*cols+c] = best
		}
	}
	return out
}

// TestMorphReconGolden checks the kernel against the independent
// reference on several shapes, seeds and thresholds, and pins a few
// structural properties of the reconstruction.
func TestMorphReconGolden(t *testing.T) {
	cases := []struct {
		rows, cols, threshold int
		seed                  int64
	}{
		{1, 1, 128, 1},
		{13, 17, 128, 1},
		{17, 13, 64, 2},
		{24, 24, 200, 3},
		{9, 31, 0, 4}, // threshold 0: fully open, dense propagation
	}
	for _, tc := range cases {
		m := NewMorphRecon(tc.threshold, tc.seed)
		g := grid.NewRect(tc.rows, tc.cols, 0)
		for r := 0; r < tc.rows; r++ {
			for c := 0; c < tc.cols; c++ {
				m.Compute(g, r, c)
			}
		}
		want := morphReconReference(m, tc.rows, tc.cols)
		markers, reached := 0, 0
		for r := 0; r < tc.rows; r++ {
			for c := 0; c < tc.cols; c++ {
				got := g.A(r, c)
				if got != want[r*tc.cols+c] {
					t.Fatalf("%dx%d thr=%d seed=%d: A(%d,%d) = %d, want %d",
						tc.rows, tc.cols, tc.threshold, tc.seed, r, c, got, want[r*tc.cols+c])
				}
				if !m.Open(r, c) {
					if got != 0 {
						t.Fatalf("closed cell (%d,%d) has value %d", r, c, got)
					}
					continue
				}
				if got < 0 || got > m.Cap(r, c) {
					t.Fatalf("open cell (%d,%d) value %d outside [0, cap=%d]", r, c, got, m.Cap(r, c))
				}
				if m.Marker(r, c) {
					markers++
					if got < m.Cap(r, c) {
						t.Fatalf("marker (%d,%d) reconstructed below its cap: %d < %d", r, c, got, m.Cap(r, c))
					}
				}
				if got > 0 {
					reached++
				}
			}
		}
		if tc.rows*tc.cols > 100 && markers == 0 {
			t.Errorf("%dx%d thr=%d seed=%d: no markers in instance", tc.rows, tc.cols, tc.threshold, tc.seed)
		}
		if reached < markers {
			t.Errorf("reached %d < markers %d", reached, markers)
		}
	}
}

// TestMorphReconPropagates checks that reconstruction actually spreads
// beyond the marker set: bright values decay into non-marker neighbours.
func TestMorphReconPropagates(t *testing.T) {
	m := NewMorphRecon(64, 7)
	rows, cols := 40, 40
	g := grid.NewRect(rows, cols, 0)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			m.Compute(g, r, c)
		}
	}
	lit := 0
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if m.Open(r, c) && !m.Marker(r, c) && g.A(r, c) > 0 {
				lit++
			}
		}
	}
	if lit == 0 {
		t.Fatal("no non-marker cell received propagated brightness")
	}
	if m.Mass(g) <= 0 {
		t.Fatalf("Mass = %d, want > 0", m.Mass(g))
	}
}

// TestMorphReconInterfaces pins the kernel's substrate declarations and
// the live-fraction closed form.
func TestMorphReconInterfaces(t *testing.T) {
	m := NewMorphRecon(-1, 1)
	if m.Threshold != MorphReconThreshold || m.Decay != 1 {
		t.Fatalf("defaults: threshold=%d decay=%d", m.Threshold, m.Decay)
	}
	if got := StencilOf(m); !got.Causal() {
		t.Errorf("stencil %v not causal", got)
	}
	live := LiveOf(m, 16, 16)
	if live == nil {
		t.Fatal("LiveOf returned nil for a Masked kernel")
	}
	n := grid.NewIrregularFrontier(16, 16, StencilOf(m), live).Cells()
	if n <= 0 || n >= 256 {
		t.Errorf("live cells = %d, want a strict subset of 256", n)
	}
	if f := MorphReconLiveFraction(0); f != 1 {
		t.Errorf("LiveFraction(0) = %g", f)
	}
	if f := MorphReconLiveFraction(256); f != 0 {
		t.Errorf("LiveFraction(256) = %g", f)
	}
	if f := MorphReconLiveFraction(128); f != 0.5 {
		t.Errorf("LiveFraction(128) = %g", f)
	}
	// The hash-derived density should track the closed form loosely.
	frac := float64(n) / 256
	want := MorphReconLiveFraction(MorphReconThreshold)
	if frac < want-0.2 || frac > want+0.2 {
		t.Errorf("observed live fraction %g far from expected %g", frac, want)
	}
}
