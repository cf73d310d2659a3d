package grid

import "testing"

// TestDiagFrontierMatchesClosedForm checks the dense frontier against the
// closed-form diagonal helpers it specializes.
func TestDiagFrontierMatchesClosedForm(t *testing.T) {
	for _, shape := range [][2]int{{1, 1}, {4, 6}, {6, 4}, {7, 7}, {1, 9}, {9, 1}} {
		rows, cols := shape[0], shape[1]
		f := NewDiagFrontier(rows, cols)
		if f.Steps() != NumDiagsRect(rows, cols) {
			t.Errorf("%dx%d: Steps = %d, want %d", rows, cols, f.Steps(), NumDiagsRect(rows, cols))
		}
		if f.Cells() != rows*cols {
			t.Errorf("%dx%d: Cells = %d, want %d", rows, cols, f.Cells(), rows*cols)
		}
		d := 0
		for {
			step, ok := f.Next()
			if !ok {
				break
			}
			if len(step) != DiagLenRect(rows, cols, d) {
				t.Fatalf("%dx%d diag %d: len %d, want %d", rows, cols, d, len(step), DiagLenRect(rows, cols, d))
			}
			for i, c := range step {
				wr, wc := DiagCellRect(rows, cols, d, i)
				if c.R != wr || c.C != wc {
					t.Fatalf("%dx%d diag %d cell %d: got (%d,%d), want (%d,%d)", rows, cols, d, i, c.R, c.C, wr, wc)
				}
			}
			d++
		}
		if d != NumDiagsRect(rows, cols) {
			t.Errorf("%dx%d: delivered %d steps, want %d", rows, cols, d, NumDiagsRect(rows, cols))
		}
	}
}

// TestDiagRangeFrontierClamps checks range clamping and the DiagRange
// fast-path accessor.
func TestDiagRangeFrontierClamps(t *testing.T) {
	f := NewDiagRangeFrontier(4, 6, -3, 99)
	if lo, hi := f.DiagRange(); lo != 0 || hi != 8 {
		t.Errorf("DiagRange = [%d,%d], want [0,8]", lo, hi)
	}
	steps, cells := CountFrontier(f)
	if steps != 9 || cells != 24 {
		t.Errorf("full range: steps=%d cells=%d, want 9, 24", steps, cells)
	}
	empty := NewDiagRangeFrontier(4, 6, 5, 3)
	if s, c := CountFrontier(empty); s != 0 || c != 0 {
		t.Errorf("empty range delivered steps=%d cells=%d", s, c)
	}
	if empty.Steps() != 0 || empty.Cells() != 0 {
		t.Errorf("empty range Steps=%d Cells=%d", empty.Steps(), empty.Cells())
	}
}

// TestIrregularDenseEquivalence: on a full rectangle with the dense
// stencil, the irregular frontier's levels are exactly the anti-diagonals,
// and its counts are known up front without consuming it.
func TestIrregularDenseEquivalence(t *testing.T) {
	rows, cols := 5, 8
	f := NewIrregularFrontier(rows, cols, DenseStencil(), nil)
	if f.Cells() != rows*cols {
		t.Fatalf("Cells = %d, want %d", f.Cells(), rows*cols)
	}
	if f.Steps() != NumDiagsRect(rows, cols) {
		t.Errorf("Steps = %d, want %d", f.Steps(), NumDiagsRect(rows, cols))
	}
	if steps, cells := CountFrontier(f); steps != NumDiagsRect(rows, cols) || cells != rows*cols {
		t.Errorf("CountFrontier = (%d, %d), want (%d, %d)", steps, cells, NumDiagsRect(rows, cols), rows*cols)
	}
	d := 0
	for {
		step, ok := f.Next()
		if !ok {
			break
		}
		if len(step) != DiagLenRect(rows, cols, d) {
			t.Fatalf("level %d has %d cells, want %d", d, len(step), DiagLenRect(rows, cols, d))
		}
		for _, c := range step {
			if c.R+c.C != d {
				t.Fatalf("level %d contains off-diagonal cell (%d,%d)", d, c.R, c.C)
			}
		}
		d++
	}
	if d != NumDiagsRect(rows, cols) {
		t.Errorf("levels = %d, want %d", d, NumDiagsRect(rows, cols))
	}
}

// TestIrregularMaskedTriangle: a triangular live region (the Nussinov
// shape) has exactly min-side levels and covers only the live cells.
func TestIrregularMaskedTriangle(t *testing.T) {
	n := 9
	live := func(r, c int) bool { return r+c >= n-1 }
	f := NewIrregularFrontier(n, n, DenseStencil(), live)
	want := n * (n + 1) / 2
	if f.Cells() != want {
		t.Fatalf("Cells = %d, want %d", f.Cells(), want)
	}
	steps, cells := CountFrontier(f)
	if cells != want {
		t.Errorf("delivered %d cells, want %d", cells, want)
	}
	// The triangle's boundary diagonal is entirely dependency-free, so
	// the levels are diagonals n-1 .. 2n-2: n of them.
	if steps != n || f.Steps() != n {
		t.Errorf("steps = %d, Steps = %d, want %d", steps, f.Steps(), n)
	}
}

// TestIrregularEmptyAndSingle covers the degenerate regions: a fully
// masked grid delivers nothing; a single-cell grid delivers one step.
func TestIrregularEmptyAndSingle(t *testing.T) {
	f := NewIrregularFrontier(6, 6, DenseStencil(), func(r, c int) bool { return false })
	if f.Cells() != 0 {
		t.Errorf("masked-out Cells = %d", f.Cells())
	}
	if step, ok := f.Next(); ok || len(step) != 0 {
		t.Errorf("masked-out frontier delivered a step: %v", step)
	}

	one := NewIrregularFrontier(1, 1, DenseStencil(), nil)
	steps, cells := CountFrontier(one)
	if steps != 1 || cells != 1 {
		t.Errorf("1x1: steps=%d cells=%d, want 1, 1", steps, cells)
	}
}

// TestIrregularDeadEnd: a self-dependency leaves every live cell at
// in-degree >= 1, so the frontier exhausts without delivering its region
// — the condition executors must turn into an error.
func TestIrregularDeadEnd(t *testing.T) {
	f := NewIrregularFrontier(3, 3, Stencil{{0, 0}}, nil)
	steps, cells := CountFrontier(f)
	if cells == f.Cells() {
		t.Fatal("cyclic stencil should not cover the region")
	}
	if steps != 0 || cells != 0 {
		t.Errorf("self-dependent frontier delivered steps=%d cells=%d", steps, cells)
	}

	// Mutual west/east dependencies: every cell waits on a neighbour, so
	// no seed exists and nothing is ever released.
	cyc := NewIrregularFrontier(1, 4, Stencil{{0, -1}, {0, 1}}, nil)
	_, cells = CountFrontier(cyc)
	if cells >= cyc.Cells() {
		t.Errorf("cyclic stencil covered %d of %d cells", cells, cyc.Cells())
	}
}

// TestStencilCausal pins the causality predicate.
func TestStencilCausal(t *testing.T) {
	if !DenseStencil().Causal() {
		t.Error("dense stencil must be causal")
	}
	for _, s := range []Stencil{
		{},
		{{0, 0}},
		{{0, 1}},
		{{1, 0}},
		{{0, -1}, {1, 1}},
	} {
		if s.Causal() {
			t.Errorf("stencil %v wrongly reported causal", s)
		}
	}
	if !(Stencil{{-1, 2}, {0, -3}}).Causal() {
		t.Error("long causal offsets must be causal")
	}
}
