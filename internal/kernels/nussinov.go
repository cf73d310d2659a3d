package kernels

import "repro/internal/grid"

// Nussinov is a Nussinov-style RNA secondary-structure kernel: it
// maximizes the number of nested complementary base pairs of a single
// sequence of n bases on an n x n grid. The classic DP fills a
// triangular matrix N(i,j) over intervals i <= j by increasing interval
// length, with
//
//	N(i,j) = max(N(i+1,j), N(i,j-1), N(i+1,j-1) + pair(i,j))
//
// where pair(i,j) is 1 when bases i and j are complementary and at
// least MinLoop unpaired bases separate them. Flipping the row axis
// (cell (r,c) holds interval [n-1-r, c]) turns those dependencies into
// exactly the wavefront's north, west and northwest neighbours, so the
// kernel runs unchanged on every executor — but only the cells with
// r + c >= n-1 carry real intervals; the leading triangle of the grid
// (the first half of the wavefront) is trivially zero, and the answer
// for the whole sequence lands in the final cell (n-1, n-1). That
// triangular live region makes Nussinov the first catalog workload
// whose work is not uniform over the rectangle; it is declared to the
// substrate through the Masked interface, so frontier executors skip
// the dead half instead of special-casing it here.
//
// The full Nussinov recurrence adds a bifurcation term
// max_k N(i,k)+N(k+1,j) that reads O(n) non-neighbour cells per point;
// it is deliberately omitted so the kernel keeps the three-neighbour
// dependency cone every execution path (tiled CPU, multi-GPU bands with
// halo overlap) is proven against. What remains is the maximal chain of
// nested pairs — the hairpin backbone of the structure.
type Nussinov struct {
	// Seq, when non-nil, is the RNA sequence (bases A, C, G, U);
	// otherwise synthetic bases are derived from indices.
	Seq []byte
	// MinLoop is the minimum hairpin loop length: bases i and j may only
	// pair when j - i > MinLoop (the biophysical default is 3).
	MinLoop int
}

// NussinovTSize is the folding kernel's granularity on the synthetic
// tsize scale, per cell of the triangular live region. The dead half of
// the rectangle is declared through the Masked interface rather than
// averaged into the granularity, so the frontier substrate can skip it
// and the cost model can scale by the live fraction explicitly.
const NussinovTSize = 1.2

// NussinovMinLoop is the conventional minimum hairpin loop length.
const NussinovMinLoop = 3

// NewNussinov returns a folding kernel over a synthetic sequence with
// the given minimum loop length (negative selects NussinovMinLoop).
func NewNussinov(minLoop int) *Nussinov {
	if minLoop < 0 {
		minLoop = NussinovMinLoop
	}
	return &Nussinov{MinLoop: minLoop}
}

// Name implements Kernel.
func (n *Nussinov) Name() string { return "nussinov" }

// TSize implements Kernel.
func (n *Nussinov) TSize() float64 { return NussinovTSize }

// DSize implements Kernel.
func (n *Nussinov) DSize() int { return 0 }

// Stencil implements Stenciled: the folding recurrence reads exactly the
// three wavefront neighbours.
func (n *Nussinov) Stencil() grid.Stencil { return grid.DenseStencil() }

// Live implements Masked: cell (r, c) carries interval [rows-1-r, c],
// which is real only when rows-1-r <= c — the triangular half of the
// grid at or past the main anti-diagonal. Frontier executors schedule
// only this region; the guard in Compute keeps dense executors (which
// still visit the dead half) writing the same zeros the frontier path
// leaves untouched.
func (n *Nussinov) Live(rows, cols, r, c int) bool { return r+c >= rows-1 }

var rnaBases = [4]byte{'A', 'C', 'G', 'U'}

func (n *Nussinov) base(i int) byte {
	if n.Seq != nil && i < len(n.Seq) {
		return n.Seq[i]
	}
	return rnaBases[(i*2654435761)>>9&3]
}

// canPair reports Watson-Crick or G-U wobble complementarity.
func canPair(a, b byte) bool {
	switch {
	case a == 'A' && b == 'U', a == 'U' && b == 'A',
		a == 'C' && b == 'G', a == 'G' && b == 'C',
		a == 'G' && b == 'U', a == 'U' && b == 'G':
		return true
	}
	return false
}

// Compute implements Kernel. Cell (r, c) of the n x n grid holds the
// interval [n-1-r, c]; cells below the anti-diagonal (empty intervals)
// are zero. Integer variable B records whether the cell's maximum was
// achieved by pairing its interval ends.
func (n *Nussinov) Compute(g *grid.Grid, r, c int) {
	size := g.Rows()
	i, j := size-1-r, c
	if i > j {
		g.SetA(r, c, 0)
		g.SetB(r, c, 0)
		return
	}
	var best int64
	if r > 0 {
		best = g.A(r-1, c) // N(i+1, j): leave base i unpaired
	}
	if c > 0 {
		if v := g.A(r, c-1); v > best { // N(i, j-1): leave base j unpaired
			best = v
		}
	}
	var paired int64
	if j-i > n.MinLoop && canPair(n.base(i), n.base(j)) {
		var inner int64
		if r > 0 && c > 0 {
			inner = g.A(r-1, c-1) // N(i+1, j-1)
		}
		if inner+1 > best {
			best, paired = inner+1, 1
		}
	}
	g.SetA(r, c, best)
	g.SetB(r, c, paired)
}

// Pairs returns the maximum nested pair count for the whole sequence
// after a sweep: the value of interval [0, n-1], which the row flip
// places at the final wavefront cell (n-1, n-1).
func (n *Nussinov) Pairs(g *grid.Grid) int64 {
	return g.A(g.Rows()-1, g.Cols()-1)
}
