// Package kernels implements the wavefront point computations used in the
// paper — the parameterizable synthetic application used for training, the
// two real evaluation applications (Nash equilibrium and biological
// sequence comparison), and the 0/1 knapsack recurrence the paper names as
// future work — plus four further dynamic-programming workloads that
// broaden the catalog beyond the paper: Smith-Waterman with affine gaps
// (SWAffine), longest common subsequence (LCS), dynamic time warping
// (DTW), and Nussinov-style RNA folding (Nussinov, the first workload
// whose meaningful domain is triangular rather than the full rectangle).
// The application registry in internal/apps catalogs all of them by name.
//
// A Kernel computes one cell of a wavefront grid from its west, north and
// northwest neighbours. Kernels are pure with respect to the grid: calling
// Compute for cells in any dependency-respecting order yields identical
// results, which is the property the executors and the simulator rely on
// (and which the engine tests verify).
package kernels

import (
	"fmt"

	"repro/internal/grid"
)

// Kernel is a wavefront point computation.
//
// Kernels may additionally implement Stenciled to declare their
// dependency stencil and Masked to declare a live region; the frontier
// executors consult both through StencilOf and LiveOf. Kernels that
// declare neither are scheduled with the dense west/north/northwest cone
// over the full rectangle, which is always safe for kernels whose
// dependencies lie on earlier anti-diagonals (the barrier between
// frontier steps then covers even long-range reads like knapsack's
// weight-shifted column).
type Kernel interface {
	// Name identifies the application.
	Name() string
	// TSize is the task granularity of one point computation, measured in
	// units of one synthetic-kernel iteration on a single CPU core
	// (the paper's tsize scale; Section 3.2.1 maps Nash to 750 and
	// sequence comparison to 0.5).
	TSize() float64
	// DSize is the number of floats carried per cell on the paper's
	// element-size scale (element bytes = 8 + 8*dsize).
	DSize() int
	// Compute evaluates cell (r, c) of g. Out-of-bounds neighbours must be
	// treated as the application's boundary condition.
	Compute(g *grid.Grid, r, c int)
}

// Stenciled is implemented by kernels that declare the exact dependency
// stencil of their recurrence. The irregular frontier path levels the
// live cells by it; kernels without it get grid.DenseStencil.
type Stenciled interface {
	// Stencil returns the relative offsets a cell reads.
	Stencil() grid.Stencil
}

// Masked is implemented by kernels whose meaningful domain is a strict
// subset of the rectangle (Nussinov's triangle, reconstruction on a
// mask). Cells outside the live region must be no-ops in Compute (or
// write only the grid's zero initial values), so dense executors that
// still visit them produce matrices identical to frontier executors
// that skip them.
type Masked interface {
	// Live reports whether cell (r, c) of a rows x cols grid belongs to
	// the kernel's live region.
	Live(rows, cols, r, c int) bool
}

// StencilOf returns k's declared dependency stencil, or the dense
// west/north/northwest cone when k does not declare one.
func StencilOf(k Kernel) grid.Stencil {
	if s, ok := k.(Stenciled); ok {
		return s.Stencil()
	}
	return grid.DenseStencil()
}

// LiveOf returns k's live-region predicate for a rows x cols grid, or
// nil when the whole rectangle is live.
func LiveOf(k Kernel, rows, cols int) func(r, c int) bool {
	m, ok := k.(Masked)
	if !ok {
		return nil
	}
	return func(r, c int) bool { return m.Live(rows, cols, r, c) }
}

// Synthetic is the paper's training application: a regular kernel whose
// granularity (Iters) and data size (DS) are free parameters. Each point
// mixes the two integer variables and the float payload of its
// neighbours through Iters rounds of cheap integer/float arithmetic, so
// one iteration is the unit of the tsize scale.
type Synthetic struct {
	// Iters is the number of inner iterations (the tsize knob).
	Iters int
	// DS is the float payload length (the dsize knob).
	DS int
}

// NewSynthetic returns a synthetic kernel of the given granularity and
// data size.
func NewSynthetic(iters, dsize int) *Synthetic {
	if iters < 1 {
		iters = 1
	}
	return &Synthetic{Iters: iters, DS: dsize}
}

// Name implements Kernel.
func (s *Synthetic) Name() string { return fmt.Sprintf("synthetic(t=%d,d=%d)", s.Iters, s.DS) }

// TSize implements Kernel.
func (s *Synthetic) TSize() float64 { return float64(s.Iters) }

// DSize implements Kernel.
func (s *Synthetic) DSize() int { return s.DS }

// Compute implements Kernel. The recurrence folds the neighbour values
// through a small linear congruential mix so that every cell depends on
// the full dependency cone and reorderings are detectable. The mix runs in
// 64 bits; the cell stores its low 32 bits as A and B.
func (s *Synthetic) Compute(g *grid.Grid, r, c int) {
	var west, north, nw int64
	if c > 0 {
		west = g.A(r, c-1)
	}
	if r > 0 {
		north = g.A(r-1, c)
	}
	if r > 0 && c > 0 {
		nw = g.A(r-1, c-1)
	}
	a := west ^ (north << 1) ^ (nw << 2) ^ int64(r*31+c*17+1)
	b := west + north - nw
	for i := 0; i < s.Iters; i++ {
		a = a*6364136223846793005 + 1442695040888963407
		b ^= a >> 17
	}
	g.SetA(r, c, a)
	g.SetB(r, c, b)
	for k := 0; k < s.DS && k < g.DSize(); k++ {
		var fw, fn float64
		if c > 0 {
			fw = g.Float(r, c-1, k)
		}
		if r > 0 {
			fn = g.Float(r-1, c, k)
		}
		g.SetFloat(r, c, k, 0.5*(fw+fn)+float64(a%1000)*1e-6)
	}
}

// Nash models the paper's game-theoretic evaluation application: small
// instances with a very computationally demanding kernel whose internal
// granularity parameter controls the iteration count of a nested loop
// (Section 3.2.1: one iteration corresponds to tsize=750 with dsize=4).
type Nash struct {
	// Rounds is the application's internal granularity parameter: the
	// iteration count of the nested best-response loop.
	Rounds int
	// Strategies is the size of the inner strategy scan per round.
	Strategies int
}

// NashTSizePerRound is the paper's mapping of one Nash round to the
// synthetic tsize scale.
const NashTSizePerRound = 750

// NashDSize is the paper's data granularity for Nash.
const NashDSize = 4

// NewNash returns a Nash kernel with the given number of best-response
// rounds. Strategies defaults to 8 payoff candidates per round.
func NewNash(rounds int) *Nash {
	if rounds < 1 {
		rounds = 1
	}
	return &Nash{Rounds: rounds, Strategies: 8}
}

// Name implements Kernel.
func (n *Nash) Name() string { return fmt.Sprintf("nash(rounds=%d)", n.Rounds) }

// TSize implements Kernel.
func (n *Nash) TSize() float64 { return float64(n.Rounds) * NashTSizePerRound }

// DSize implements Kernel.
func (n *Nash) DSize() int { return NashDSize }

// Compute implements Kernel. Each cell refines a two-player payoff pair by
// iterated best response over a small strategy set seeded from the
// neighbouring cells; convergence of the pair is the cell's equilibrium
// estimate.
func (n *Nash) Compute(g *grid.Grid, r, c int) {
	var pw, pn float64
	if c > 0 {
		pw = g.Float(r, c-1, 0)
	}
	if r > 0 {
		pn = g.Float(r-1, c, 1)
	}
	p1, p2 := pw+float64(r%7)*0.125, pn+float64(c%5)*0.25
	var count int64
	for round := 0; round < n.Rounds; round++ {
		best1, best2 := p1, p2
		for s := 0; s < n.Strategies; s++ {
			cand := 0.5*p1 + 0.25*p2 + float64(s)*0.0625
			if u := cand - cand*cand*0.01; u > best1 {
				best1 = u
			}
			cand = 0.5*p2 + 0.25*p1 - float64(s)*0.03125
			if u := cand - cand*cand*0.02; u > best2 {
				best2 = u
			}
			count++
		}
		p1, p2 = 0.9*p1+0.1*best1, 0.9*p2+0.1*best2
	}
	g.SetA(r, c, count)
	g.SetB(r, c, int64(n.Rounds))
	if g.DSize() >= 1 {
		g.SetFloat(r, c, 0, p1)
	}
	if g.DSize() >= 2 {
		g.SetFloat(r, c, 1, p2)
	}
	if g.DSize() >= 3 {
		g.SetFloat(r, c, 2, p1-p2)
	}
	if g.DSize() >= 4 {
		g.SetFloat(r, c, 3, p1+p2)
	}
}

// SeqCompare is the biological sequence comparison application: a
// Smith–Waterman local-alignment score matrix with very large instances
// and a very fine-grained kernel (the paper maps it to tsize=0.5, dsize=0).
// The two sequences are derived deterministically from the row and column
// indices so instances of any dim can be generated without input files.
type SeqCompare struct {
	// Match, Mismatch and Gap are the scoring constants.
	Match, Mismatch, Gap int64
	// SeqA and SeqB, when non-nil, are the sequences to align; otherwise
	// synthetic sequences are derived from indices.
	SeqA, SeqB []byte
}

// SeqCompareTSize is the paper's granularity mapping for sequence
// comparison on the synthetic tsize scale.
const SeqCompareTSize = 0.5

// NewSeqCompare returns a Smith–Waterman kernel with classic scoring
// (+2 match, -1 mismatch, -1 gap).
func NewSeqCompare() *SeqCompare {
	return &SeqCompare{Match: 2, Mismatch: -1, Gap: -1}
}

// NewSeqCompareWith returns a Smith–Waterman kernel aligning the two given
// sequences; cells outside the sequence lengths reuse the synthetic bases.
func NewSeqCompareWith(a, b []byte) *SeqCompare {
	k := NewSeqCompare()
	k.SeqA, k.SeqB = a, b
	return k
}

// Name implements Kernel.
func (s *SeqCompare) Name() string { return "seqcompare" }

// TSize implements Kernel.
func (s *SeqCompare) TSize() float64 { return SeqCompareTSize }

// DSize implements Kernel.
func (s *SeqCompare) DSize() int { return 0 }

var bases = [4]byte{'A', 'C', 'G', 'T'}

// synthBaseA and synthBaseB derive deterministic DNA bases from row and
// column indices, so sequence kernels can generate instances of any dim
// without input files. They are shared by every alignment-style kernel
// (SeqCompare, SWAffine, LCS).
func synthBaseA(r int) byte { return bases[(r*2654435761)>>8&3] }

func synthBaseB(c int) byte { return bases[(c*40503)>>4&3] }

func (s *SeqCompare) baseA(r int) byte {
	if s.SeqA != nil && r < len(s.SeqA) {
		return s.SeqA[r]
	}
	return synthBaseA(r)
}

func (s *SeqCompare) baseB(c int) byte {
	if s.SeqB != nil && c < len(s.SeqB) {
		return s.SeqB[c]
	}
	return synthBaseB(c)
}

// Compute implements Kernel: the Smith–Waterman recurrence
// H(r,c) = max(0, H(r-1,c-1)+score, H(r-1,c)+gap, H(r,c-1)+gap),
// with the score kept in integer variable A and the running row maximum
// in B (so the final alignment score is recoverable from the grid).
func (s *SeqCompare) Compute(g *grid.Grid, r, c int) {
	var diag, up, left int64
	if r > 0 && c > 0 {
		diag = g.A(r-1, c-1)
	}
	if r > 0 {
		up = g.A(r-1, c)
	}
	if c > 0 {
		left = g.A(r, c-1)
	}
	sub := s.Mismatch
	if s.baseA(r) == s.baseB(c) {
		sub = s.Match
	}
	h := diag + sub
	if v := up + s.Gap; v > h {
		h = v
	}
	if v := left + s.Gap; v > h {
		h = v
	}
	if h < 0 {
		h = 0
	}
	g.SetA(r, c, h)
	best := h
	if c > 0 {
		if b := g.B(r, c-1); b > best {
			best = b
		}
	}
	if r > 0 {
		if b := g.B(r-1, c); b > best {
			best = b
		}
	}
	g.SetB(r, c, best)
}

// Score returns the best local alignment score recorded in the grid after
// a full sweep (the running maximum at the last cell).
func (s *SeqCompare) Score(g *grid.Grid) int64 {
	return g.B(g.Rows()-1, g.Cols()-1)
}

// Knapsack is the 0/1 knapsack dynamic program, the paper's named
// future-work extension beyond simple wavefronts: row r is item r, column
// c is capacity c, and each cell depends on the cell above and the cell
// above-left by the item's weight. It is expressible in the wavefront
// pattern because its dependencies never point right or down.
type Knapsack struct {
	// Weights and Values describe the items; index by row.
	Weights, Values []int64
}

// NewKnapsack derives a deterministic instance with dim items.
func NewKnapsack(dim int) *Knapsack {
	k := &Knapsack{Weights: make([]int64, dim), Values: make([]int64, dim)}
	for i := 0; i < dim; i++ {
		k.Weights[i] = int64(i%13 + 1)
		k.Values[i] = int64((i*7)%29 + 1)
	}
	return k
}

// Name implements Kernel.
func (k *Knapsack) Name() string { return "knapsack" }

// TSize implements Kernel: the recurrence is two loads and a max, finer
// even than sequence comparison.
func (k *Knapsack) TSize() float64 { return 0.5 }

// DSize implements Kernel.
func (k *Knapsack) DSize() int { return 0 }

// Compute implements Kernel. Row 0 is the base case.
func (k *Knapsack) Compute(g *grid.Grid, r, c int) {
	w, v := int64(1), int64(1)
	if r < len(k.Weights) {
		w, v = k.Weights[r], k.Values[r]
	}
	var without int64
	if r > 0 {
		without = g.A(r-1, c)
	}
	best := without
	if int64(c) >= w {
		var prev int64
		if r > 0 {
			prev = g.A(r-1, c-int(w))
		}
		if take := prev + v; take > best {
			best = take
		}
	}
	g.SetA(r, c, best)
	g.SetB(r, c, w)
}
