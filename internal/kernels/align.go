package kernels

// Alignment-family kernels beyond the paper's plain Smith-Waterman
// (SeqCompare): affine-gap local alignment (Gotoh's algorithm) and
// longest common subsequence. Both follow SeqCompare's conventions:
// sequences are derived deterministically from the row and column
// indices unless explicit sequences are supplied, out-of-bounds
// neighbours are the boundary condition, and the running best value is
// threaded through integer variable B so the final answer is readable
// from the last cell.

import "repro/internal/grid"

// gapNegInf is the effectively minus-infinite score stored for the gap
// matrices at boundaries where a gap state cannot exist. It is far below
// any reachable score yet safe against int64 underflow when extended.
const gapNegInf = int64(-1) << 40

// SWAffine is Smith-Waterman local alignment with affine gap penalties
// (Gotoh): a gap of length L costs GapOpen + L*GapExtend, so long indels
// are penalized sub-linearly — the scoring biologists actually use. Each
// cell carries three values: the alignment score H in integer variable
// A, and the two gap-state scores E (gap in the query) and F (gap in the
// reference) in the cell's two floats; the dependency structure is still
// exactly west/north/northwest.
type SWAffine struct {
	// Match and Mismatch are the substitution scores.
	Match, Mismatch int64
	// GapOpen and GapExtend are the (positive) affine gap penalties.
	GapOpen, GapExtend int64
	// SeqA and SeqB, when non-nil, are the sequences to align; otherwise
	// synthetic bases are derived from indices.
	SeqA, SeqB []byte
}

// SWAffineTSize is the affine-gap kernel's granularity on the synthetic
// tsize scale: three coupled recurrences per cell, roughly three times
// the paper's plain sequence comparison (tsize 0.5).
const SWAffineTSize = 1.5

// SWAffineDSize is the per-cell float count: the E and F gap matrices.
const SWAffineDSize = 2

// NewSWAffine returns an affine-gap Smith-Waterman kernel with the
// classic BLAST-style scoring (+5 match, -4 mismatch, gap open 10,
// gap extend 1).
func NewSWAffine() *SWAffine {
	return &SWAffine{Match: 5, Mismatch: -4, GapOpen: 10, GapExtend: 1}
}

// Name implements Kernel.
func (s *SWAffine) Name() string { return "swaffine" }

// TSize implements Kernel.
func (s *SWAffine) TSize() float64 { return SWAffineTSize }

// DSize implements Kernel.
func (s *SWAffine) DSize() int { return SWAffineDSize }

func (s *SWAffine) baseA(r int) byte {
	if s.SeqA != nil && r < len(s.SeqA) {
		return s.SeqA[r]
	}
	return synthBaseA(r)
}

func (s *SWAffine) baseB(c int) byte {
	if s.SeqB != nil && c < len(s.SeqB) {
		return s.SeqB[c]
	}
	return synthBaseB(c)
}

// Compute implements Kernel: Gotoh's three-matrix recurrence
//
//	E(r,c) = max(H(r,c-1) - open - extend, E(r,c-1) - extend)
//	F(r,c) = max(H(r-1,c) - open - extend, F(r-1,c) - extend)
//	H(r,c) = max(0, H(r-1,c-1) + score, E(r,c), F(r,c))
//
// with H for out-of-bounds neighbours 0 (local alignment) and E/F
// effectively minus infinity (a gap cannot start before the matrix).
// The running maximum of H is kept in integer variable B.
func (s *SWAffine) Compute(g *grid.Grid, r, c int) {
	var diag, up, left int64
	eLeft, fUp := gapNegInf, gapNegInf
	if r > 0 && c > 0 {
		diag = g.A(r-1, c-1)
	}
	if r > 0 {
		up = g.A(r-1, c)
		fUp = int64(g.Float(r-1, c, 1))
	}
	if c > 0 {
		left = g.A(r, c-1)
		eLeft = int64(g.Float(r, c-1, 0))
	}
	e := left - s.GapOpen - s.GapExtend
	if v := eLeft - s.GapExtend; v > e {
		e = v
	}
	f := up - s.GapOpen - s.GapExtend
	if v := fUp - s.GapExtend; v > f {
		f = v
	}
	sub := s.Mismatch
	if s.baseA(r) == s.baseB(c) {
		sub = s.Match
	}
	h := diag + sub
	if e > h {
		h = e
	}
	if f > h {
		h = f
	}
	if h < 0 {
		h = 0
	}
	g.SetA(r, c, h)
	g.SetFloat(r, c, 0, float64(e))
	g.SetFloat(r, c, 1, float64(f))
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

// Score returns the best local alignment score recorded in the grid
// after a full sweep.
func (s *SWAffine) Score(g *grid.Grid) int64 {
	return g.B(g.Rows()-1, g.Cols()-1)
}

// LCS is the longest-common-subsequence dynamic program, the textbook
// wavefront recurrence: cell (r, c) holds the LCS length of the prefixes
// a[0..r] and b[0..c]. It is the finest-grained kernel in the catalog —
// one comparison and a max per cell.
type LCS struct {
	// SeqA and SeqB, when non-nil, are the sequences to compare;
	// otherwise synthetic bases are derived from indices.
	SeqA, SeqB []byte
}

// LCSTSize is the LCS granularity on the synthetic tsize scale.
const LCSTSize = 0.4

// NewLCS returns an LCS kernel over synthetic sequences.
func NewLCS() *LCS { return &LCS{} }

// Name implements Kernel.
func (l *LCS) Name() string { return "lcs" }

// TSize implements Kernel.
func (l *LCS) TSize() float64 { return LCSTSize }

// DSize implements Kernel.
func (l *LCS) DSize() int { return 0 }

func (l *LCS) baseA(r int) byte {
	if l.SeqA != nil && r < len(l.SeqA) {
		return l.SeqA[r]
	}
	return synthBaseA(r)
}

func (l *LCS) baseB(c int) byte {
	if l.SeqB != nil && c < len(l.SeqB) {
		return l.SeqB[c]
	}
	return synthBaseB(c)
}

// Compute implements Kernel: the classic recurrence
//
//	L(r,c) = L(r-1,c-1) + 1                 if a[r] == b[c]
//	L(r,c) = max(L(r-1,c), L(r,c-1))        otherwise
//
// with out-of-bounds neighbours 0. Integer variable B records whether
// the cell was a match (1) or not (0).
func (l *LCS) Compute(g *grid.Grid, r, c int) {
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
	var v, matched int64
	if l.baseA(r) == l.baseB(c) {
		v, matched = diag+1, 1
	} else {
		v = up
		if left > v {
			v = left
		}
	}
	g.SetA(r, c, v)
	g.SetB(r, c, matched)
}

// Length returns the LCS length of the full sequences after a sweep.
func (l *LCS) Length(g *grid.Grid) int64 {
	return g.A(g.Rows()-1, g.Cols()-1)
}
