package kernels

// Golden tests for the extended catalog kernels: each kernel's grid is
// verified cell-for-cell against an independent, straightforwardly
// written reference implementation of the same dynamic program (bordered
// matrices, no wavefront machinery), so a kernel bug cannot hide behind
// a matching-but-wrong executor.

import (
	"math"
	"testing"

	"repro/internal/grid"
)

// refSWAffine is a bordered-matrix Gotoh implementation: H/E/F are
// (m+1) x (n+1) with index 0 meaning "before the sequence".
func refSWAffine(a, b []byte, match, mismatch, open, extend int64) (h, e, f [][]int64) {
	const neg = int64(-1) << 40
	m, n := len(a), len(b)
	alloc := func() [][]int64 {
		x := make([][]int64, m+1)
		for i := range x {
			x[i] = make([]int64, n+1)
		}
		return x
	}
	h, e, f = alloc(), alloc(), alloc()
	for i := 0; i <= m; i++ {
		e[i][0] = neg
		f[i][0] = neg
	}
	for j := 0; j <= n; j++ {
		e[0][j] = neg
		f[0][j] = neg
	}
	max := func(xs ...int64) int64 {
		best := xs[0]
		for _, x := range xs[1:] {
			if x > best {
				best = x
			}
		}
		return best
	}
	for i := 1; i <= m; i++ {
		for j := 1; j <= n; j++ {
			e[i][j] = max(h[i][j-1]-open-extend, e[i][j-1]-extend)
			f[i][j] = max(h[i-1][j]-open-extend, f[i-1][j]-extend)
			sub := mismatch
			if a[i-1] == b[j-1] {
				sub = match
			}
			h[i][j] = max(0, h[i-1][j-1]+sub, e[i][j], f[i][j])
		}
	}
	return h, e, f
}

func TestSWAffineGolden(t *testing.T) {
	a := []byte("GATTACACAGGT")
	b := []byte("GCATGCGATTACTT")
	k := NewSWAffine()
	k.SeqA, k.SeqB = a, b
	g := grid.NewRect(len(a), len(b), k.DSize())
	RunAll(k, g)

	h, e, f := refSWAffine(a, b, k.Match, k.Mismatch, k.GapOpen, k.GapExtend)
	var best int64
	for r := 0; r < len(a); r++ {
		for c := 0; c < len(b); c++ {
			if got, want := g.A(r, c), h[r+1][c+1]; got != want {
				t.Fatalf("H(%d,%d) = %d, want %d", r, c, got, want)
			}
			if got, want := int64(g.Float(r, c, 0)), e[r+1][c+1]; got != want {
				t.Fatalf("E(%d,%d) = %d, want %d", r, c, got, want)
			}
			if got, want := int64(g.Float(r, c, 1)), f[r+1][c+1]; got != want {
				t.Fatalf("F(%d,%d) = %d, want %d", r, c, got, want)
			}
			if h[r+1][c+1] > best {
				best = h[r+1][c+1]
			}
		}
	}
	if got := k.Score(g); got != best {
		t.Errorf("Score = %d, want matrix max %d", got, best)
	}
	// Sanity on a case with a known answer: identical sequences score
	// len * match with no gaps.
	same := []byte("ACGTACGT")
	k2 := NewSWAffine()
	k2.SeqA, k2.SeqB = same, same
	g2 := grid.NewRect(len(same), len(same), k2.DSize())
	RunAll(k2, g2)
	if got, want := k2.Score(g2), int64(len(same))*k2.Match; got != want {
		t.Errorf("self-alignment score = %d, want %d", got, want)
	}
}

// refLCS is the textbook bordered LCS table.
func refLCS(a, b []byte) [][]int64 {
	m, n := len(a), len(b)
	l := make([][]int64, m+1)
	for i := range l {
		l[i] = make([]int64, n+1)
	}
	for i := 1; i <= m; i++ {
		for j := 1; j <= n; j++ {
			switch {
			case a[i-1] == b[j-1]:
				l[i][j] = l[i-1][j-1] + 1
			case l[i-1][j] >= l[i][j-1]:
				l[i][j] = l[i-1][j]
			default:
				l[i][j] = l[i][j-1]
			}
		}
	}
	return l
}

func TestLCSGolden(t *testing.T) {
	a := []byte("AGGTAB")
	b := []byte("GXTXAYB")
	k := NewLCS()
	k.SeqA, k.SeqB = a, b
	g := grid.NewRect(len(a), len(b), 0)
	RunAll(k, g)
	want := refLCS(a, b)
	for r := 0; r < len(a); r++ {
		for c := 0; c < len(b); c++ {
			if got := g.A(r, c); got != want[r+1][c+1] {
				t.Fatalf("L(%d,%d) = %d, want %d", r, c, got, want[r+1][c+1])
			}
		}
	}
	// The classic example: LCS(AGGTAB, GXTXAYB) = GTAB, length 4.
	if got := k.Length(g); got != 4 {
		t.Errorf("Length = %d, want 4", got)
	}
}

// refDTW is the standard bordered DTW table with +inf borders.
func refDTW(x, y []float64) [][]float64 {
	m, n := len(x), len(y)
	d := make([][]float64, m+1)
	for i := range d {
		d[i] = make([]float64, n+1)
		for j := range d[i] {
			d[i][j] = math.Inf(1)
		}
	}
	d[0][0] = 0
	for i := 1; i <= m; i++ {
		for j := 1; j <= n; j++ {
			cost := math.Abs(x[i-1] - y[j-1])
			best := d[i-1][j-1]
			if d[i-1][j] < best {
				best = d[i-1][j]
			}
			if d[i][j-1] < best {
				best = d[i][j-1]
			}
			d[i][j] = cost + best
		}
	}
	return d
}

func TestDTWGolden(t *testing.T) {
	x := []float64{0, 1, 2, 3, 2, 1, 0, -1, 0, 2}
	y := []float64{0, 0, 1, 3, 3, 2, 0, -1, -1, 0, 1}
	k := NewDTW()
	k.SeriesA, k.SeriesB = x, y
	g := grid.NewRect(len(x), len(y), k.DSize())
	RunAll(k, g)
	want := refDTW(x, y)
	for r := 0; r < len(x); r++ {
		for c := 0; c < len(y); c++ {
			if got := g.Float(r, c, 0); math.Abs(got-want[r+1][c+1]) > 1e-9 {
				t.Fatalf("D(%d,%d) = %g, want %g", r, c, got, want[r+1][c+1])
			}
		}
	}
	// Identical series warp with zero cost along the diagonal.
	k2 := NewDTW()
	k2.SeriesA, k2.SeriesB = x, x
	g2 := grid.NewRect(len(x), len(x), k2.DSize())
	RunAll(k2, g2)
	if got := k2.Dist(g2); got != 0 {
		t.Errorf("self-DTW distance = %g, want 0", got)
	}
}

// refNussinov fills the interval table N[i][j] (maximum nested pairs,
// no bifurcation) directly in (i, j) space by increasing interval
// length.
func refNussinov(seq []byte, minLoop int) [][]int64 {
	n := len(seq)
	N := make([][]int64, n)
	for i := range N {
		N[i] = make([]int64, n)
	}
	for span := 1; span < n; span++ {
		for i := 0; i+span < n; i++ {
			j := i + span
			best := N[i+1][j] // i+1 <= j always holds here
			if v := N[i][j-1]; v > best {
				best = v
			}
			if j-i > minLoop && canPair(seq[i], seq[j]) {
				var inner int64
				if i+1 <= j-1 {
					inner = N[i+1][j-1]
				}
				if inner+1 > best {
					best = inner + 1
				}
			}
			N[i][j] = best
		}
	}
	return N
}

func TestNussinovGolden(t *testing.T) {
	seq := []byte("GGGAAAUCCAGCUUCGGCUGAAUU")
	k := NewNussinov(NussinovMinLoop)
	k.Seq = seq
	n := len(seq)
	g := grid.NewRect(n, n, 0)
	RunAll(k, g)
	want := refNussinov(seq, k.MinLoop)
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			i, j := n-1-r, c
			var w int64
			if i <= j {
				w = want[i][j]
			}
			if got := g.A(r, c); got != w {
				t.Fatalf("cell (%d,%d) = interval [%d,%d] = %d, want %d", r, c, i, j, got, w)
			}
		}
	}
	if got, want := k.Pairs(g), want[0][n-1]; got != want {
		t.Errorf("Pairs = %d, want %d", got, want)
	}
	// A perfect hairpin: GGGG AAAA CCCC pairs all four G-C stems when
	// the loop is long enough.
	hp := []byte("GGGGAAAACCCC")
	k2 := NewNussinov(3)
	k2.Seq = hp
	g2 := grid.NewRect(len(hp), len(hp), 0)
	RunAll(k2, g2)
	if got := k2.Pairs(g2); got != 4 {
		t.Errorf("hairpin pairs = %d, want 4", got)
	}
}

func TestNussinovMinLoopGate(t *testing.T) {
	// With minLoop >= n no pairing is ever allowed.
	k := NewNussinov(6)
	k.Seq = []byte("GCGCGC")
	g := grid.NewRect(6, 6, 0)
	RunAll(k, g)
	if got := k.Pairs(g); got != 0 {
		t.Errorf("pairs with prohibitive min_loop = %d, want 0", got)
	}
}

// RunAll sweeps the grid row-major (the serial reference order).
func RunAll(k Kernel, g *grid.Grid) {
	for r := 0; r < g.Rows(); r++ {
		for c := 0; c < g.Cols(); c++ {
			k.Compute(g, r, c)
		}
	}
}
