package grid_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/grid"
	"repro/internal/kernels"
)

// refLevels is the reference in-degree propagation: it seeds a queue
// with the live cells that have no live predecessors and releases each
// cell once its last live predecessor has been delivered, one level at a
// time. It returns every level as a sorted list of row-major indices and
// the number of live cells; a cyclic stencil leaves some live cells
// unreleased.
func refLevels(rows, cols int, st grid.Stencil, live func(r, c int) bool) (levels [][]int, liveCells int) {
	n := rows * cols
	isLive := make([]bool, n)
	for i := range isLive {
		if live == nil || live(i/cols, i%cols) {
			isLive[i] = true
			liveCells++
		}
	}
	indeg := make([]int, n)
	var ready []int
	for i := range isLive {
		if !isLive[i] {
			continue
		}
		r, c := i/cols, i%cols
		for _, o := range st {
			pr, pc := r+o.DR, c+o.DC
			if pr >= 0 && pr < rows && pc >= 0 && pc < cols && isLive[pr*cols+pc] {
				indeg[i]++
			}
		}
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	for len(ready) > 0 {
		levels = append(levels, slices.Sorted(slices.Values(ready)))
		var next []int
		for _, i := range ready {
			r, c := i/cols, i%cols
			for _, o := range st {
				sr, sc := r-o.DR, c-o.DC
				if sr < 0 || sr >= rows || sc < 0 || sc >= cols || !isLive[sr*cols+sc] {
					continue
				}
				j := sr*cols + sc
				if indeg[j]--; indeg[j] == 0 {
					next = append(next, j)
				}
			}
		}
		ready = next
	}
	return levels, liveCells
}

// checkFrontierEquivalent drains a fresh frontier and checks every
// step's cell set, the step count and the delivered cell count against
// the reference propagation; CountFrontier on a second fresh frontier
// must report the same counts.
func checkFrontierEquivalent(t *testing.T, name string, rows, cols int, st grid.Stencil, live func(r, c int) bool) (delivered, liveCells int) {
	t.Helper()
	want, liveCells := refLevels(rows, cols, st, live)
	wantCells := 0
	for _, l := range want {
		wantCells += len(l)
	}

	f := grid.NewIrregularFrontier(rows, cols, st, live)
	if f.Cells() != liveCells {
		t.Errorf("%s: Cells = %d, want %d live cells", name, f.Cells(), liveCells)
	}
	if s, _ := grid.CountFrontier(f); s != len(want) {
		t.Errorf("%s: CountFrontier steps = %d, want %d", name, s, len(want))
	}
	step := 0
	for {
		cells, ok := f.Next()
		if !ok {
			break
		}
		if step >= len(want) {
			t.Fatalf("%s: delivered more than the reference's %d steps", name, len(want))
		}
		got := make([]int, len(cells))
		for i, c := range cells {
			got[i] = c.R*cols + c.C
		}
		slices.Sort(got)
		if !slices.Equal(got, want[step]) {
			t.Fatalf("%s: step %d = %v, want %v", name, step, got, want[step])
		}
		delivered += len(cells)
		step++
	}
	if step != len(want) {
		t.Errorf("%s: %d steps, want %d", name, step, len(want))
	}
	if delivered != wantCells {
		t.Errorf("%s: delivered %d cells, want %d", name, delivered, wantCells)
	}

	steps, cells := grid.CountFrontier(grid.NewIrregularFrontier(rows, cols, st, live))
	if steps != len(want) || cells != wantCells {
		t.Errorf("%s: CountFrontier = (%d, %d), want (%d, %d)", name, steps, cells, len(want), wantCells)
	}
	return delivered, liveCells
}

// randomMask returns a live predicate with each cell live with
// probability density.
func randomMask(rng *rand.Rand, rows, cols int, density float64) func(r, c int) bool {
	m := make([]bool, rows*cols)
	for i := range m {
		m[i] = rng.Float64() < density
	}
	return func(r, c int) bool { return m[r*cols+c] }
}

type namedStencil struct {
	name string
	st   grid.Stencil
}

// TestIrregularFrontierMatchesInDegreeReference pins the irregular
// frontier to the reference in-degree propagation: every step's cell
// set, the step count and the delivered cell count, across random
// masks, degenerate and rectangular shapes, causal stencils of several
// reaches, an acyclic non-causal stencil and the catalog's masked
// kernels.
func TestIrregularFrontierMatchesInDegreeReference(t *testing.T) {
	stencils := []namedStencil{
		{"dense", grid.DenseStencil()},
		{"up-right", grid.Stencil{{DR: -1, DC: 1}, {DR: 0, DC: -1}}},
		{"long-reach", grid.Stencil{{DR: -1, DC: 0}, {DR: -1, DC: -3}}},
		{"two-up", grid.Stencil{{DR: -2, DC: 1}, {DR: 0, DC: -2}}},
		{"south-west", grid.Stencil{{DR: 1, DC: 0}, {DR: 0, DC: -1}}},
	}
	shapes := [][2]int{{1, 1}, {1, 17}, {17, 1}, {2, 9}, {7, 13}, {13, 7}, {20, 20}}
	rng := rand.New(rand.NewSource(17))
	for _, ns := range stencils {
		name, st := ns.name, ns.st
		for _, sh := range shapes {
			for _, density := range []float64{0.1, 0.5, 0.9, 1.0} {
				rows, cols := sh[0], sh[1]
				live := randomMask(rng, rows, cols, density)
				if density == 1.0 {
					live = nil
				}
				label := fmt.Sprintf("%s %dx%d density %.1f", name, rows, cols, density)
				delivered, liveCells := checkFrontierEquivalent(t, label, rows, cols, st, live)
				if delivered != liveCells {
					t.Errorf("%s: acyclic stencil delivered %d of %d cells", label, delivered, liveCells)
				}
			}
		}
	}

	for _, k := range []kernels.Kernel{
		kernels.NewNussinov(-1),
		kernels.NewMorphRecon(-1, 3),
		kernels.NewMorphRecon(200, 7),
	} {
		for _, sh := range [][2]int{{24, 24}, {30, 41}, {41, 30}} {
			rows, cols := sh[0], sh[1]
			label := fmt.Sprintf("%s %dx%d", k.Name(), rows, cols)
			checkFrontierEquivalent(t, label, rows, cols, kernels.StencilOf(k), kernels.LiveOf(k, rows, cols))
		}
	}
}

// TestIrregularFrontierStuckMatchesReference: the self-dependent and
// west/east cyclic stencils still come out stuck, delivering exactly the
// cells the reference propagation releases (isolated cells of a sparse
// mask have no live neighbour and still seed).
func TestIrregularFrontierStuckMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, ns := range []namedStencil{
		{"self", grid.Stencil{{DR: 0, DC: 0}}},
		{"west-east", grid.Stencil{{DR: 0, DC: -1}, {DR: 0, DC: 1}}},
	} {
		name, st := ns.name, ns.st
		for _, sh := range [][2]int{{1, 9}, {9, 1}, {6, 11}} {
			for _, density := range []float64{0.5, 1.0} {
				rows, cols := sh[0], sh[1]
				live := randomMask(rng, rows, cols, density)
				if density == 1.0 {
					live = nil
				}
				label := fmt.Sprintf("%s %dx%d density %.1f", name, rows, cols, density)
				delivered, liveCells := checkFrontierEquivalent(t, label, rows, cols, st, live)
				// On a full rectangle every cell waits on itself or on a
				// row neighbour, unless the rows are a single cell wide.
				if density == 1.0 && (name == "self" || cols > 1) && delivered >= liveCells {
					t.Errorf("%s: cyclic stencil covered %d of %d cells", label, delivered, liveCells)
				}
			}
		}
	}
}

// TestIrregularCountAllocs: building a masked frontier and counting it
// makes a constant number of allocations, whatever the cell count — no
// per-step slices and no per-cell Cells.
func TestIrregularCountAllocs(t *testing.T) {
	k := kernels.NewMorphRecon(-1, 1)
	count := func(n int) float64 {
		return testing.AllocsPerRun(5, func() {
			f := grid.NewIrregularFrontier(n, n, kernels.StencilOf(k), kernels.LiveOf(k, n, n))
			if _, cells := grid.CountFrontier(f); cells == 0 {
				t.Fatal("empty morphrecon frontier")
			}
		})
	}
	small, large := count(64), count(256)
	if large != small || large > 8 {
		t.Errorf("KernelFrontier + CountFrontier made %.0f allocations at 64² and %.0f at 256², want the same count, at most 8", small, large)
	}
}
