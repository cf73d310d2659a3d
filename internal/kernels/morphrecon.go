package kernels

import "repro/internal/grid"

// MorphRecon is a causal grayscale morphological reconstruction kernel,
// the first genuinely irregular catalog workload, after the irregular
// wavefront propagation patterns of Teodoro et al.: a marker image is
// propagated through the connected "open" region of a mask image, each
// reconstructed pixel taking the brightest value reachable from a marker
// along an open path, attenuated by a per-step decay and clipped at the
// mask's own capacity.
//
// The instance is self-generating, like the sequence kernels: the mask
// (which pixels are open, and their capacity) and the marker set are
// derived deterministically from pixel coordinates and a seed, so
// instances of any shape exist without input files. Cell (r, c) computes
//
//	A(r,c) = 0                                          if closed
//	A(r,c) = min(cap, max(marker, W-decay, N-decay, NW-decay, 0))
//
// where W/N/NW are the reconstructed values of the west, north and
// northwest neighbours (closed or out-of-bounds neighbours contribute
// nothing — their value is zero, and zero minus a positive decay never
// wins). This is the forward (causal) half-scan of the classic two-pass
// raster reconstruction algorithm: dependencies point only at earlier
// cells, so the value of a cell is a pure function of its predecessors
// and every dependency-respecting execution order yields the same
// matrix.
//
// What makes the workload irregular is the live region: only the open
// pixels of the mask carry work, and which pixels are open is decided by
// a hash, not a closed form over diagonals. MorphRecon declares the
// region through Masked and its three-neighbour cone through Stenciled,
// so the frontier executors schedule it as a work queue seeded from the
// open cells without open predecessors — dense executors still sweep
// the whole rectangle and write zeros in the closed cells, which is
// exactly what the frontier path leaves behind.
type MorphRecon struct {
	// Threshold in [0, 255] decides openness: pixel (r, c) is open when
	// its mask hash byte is >= Threshold, so the expected live fraction
	// is (256-Threshold)/256.
	Threshold int
	// Decay is the per-step attenuation of a propagating marker value.
	Decay int64
	// Seed varies the derived mask and marker fields.
	Seed int64
}

// MorphReconTSize is the reconstruction kernel's granularity on the
// synthetic tsize scale, per live cell: three neighbour loads, a few
// hashes and comparisons — slightly coarser than sequence comparison.
const MorphReconTSize = 0.7

// MorphReconThreshold is the default openness threshold: about half the
// pixels are open.
const MorphReconThreshold = 128

// NewMorphRecon returns a reconstruction kernel with the given openness
// threshold (negative selects MorphReconThreshold), unit decay and the
// given seed.
func NewMorphRecon(threshold int, seed int64) *MorphRecon {
	if threshold < 0 {
		threshold = MorphReconThreshold
	}
	return &MorphRecon{Threshold: threshold, Decay: 1, Seed: seed}
}

// Name implements Kernel.
func (m *MorphRecon) Name() string { return "morphrecon" }

// TSize implements Kernel.
func (m *MorphRecon) TSize() float64 { return MorphReconTSize }

// DSize implements Kernel.
func (m *MorphRecon) DSize() int { return 0 }

// Stencil implements Stenciled: the causal propagation cone.
func (m *MorphRecon) Stencil() grid.Stencil { return grid.DenseStencil() }

// hash is a small integer mix deriving the synthetic image fields.
func (m *MorphRecon) hash(r, c int) uint64 {
	x := uint64(r)*0x9E3779B97F4A7C15 ^ uint64(c)*0xC2B2AE3D27D4EB4F ^ uint64(m.Seed)*0x165667B19E3779F9
	x ^= x >> 29
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 32
	return x
}

// Open reports whether pixel (r, c) belongs to the mask's open region.
func (m *MorphRecon) Open(r, c int) bool {
	return int(m.hash(r, c)&0xff) >= m.Threshold
}

// Live implements Masked: only open pixels carry work.
func (m *MorphRecon) Live(rows, cols, r, c int) bool { return m.Open(r, c) }

// Cap returns the mask capacity of an open pixel, in [1, 128].
func (m *MorphRecon) Cap(r, c int) int64 {
	return 1 + int64(m.hash(r, c)>>8&0x7f)
}

// Marker reports whether pixel (r, c) is a marker seed (about 1 in 32
// open pixels).
func (m *MorphRecon) Marker(r, c int) bool {
	return m.Open(r, c) && m.hash(r, c)>>16&0x1f == 0
}

// Compute implements Kernel. Integer variable A holds the reconstructed
// value; B records how the cell was reached (0 closed, 1 propagated-only
// or dark, 2 marker).
func (m *MorphRecon) Compute(g *grid.Grid, r, c int) {
	if !m.Open(r, c) {
		g.SetA(r, c, 0)
		g.SetB(r, c, 0)
		return
	}
	var best int64
	if c > 0 {
		if v := g.A(r, c-1) - m.Decay; v > best {
			best = v
		}
	}
	if r > 0 {
		if v := g.A(r-1, c) - m.Decay; v > best {
			best = v
		}
	}
	if r > 0 && c > 0 {
		if v := g.A(r-1, c-1) - m.Decay; v > best {
			best = v
		}
	}
	how := int64(1)
	if m.Marker(r, c) {
		if cap := m.Cap(r, c); cap > best {
			best = cap
		}
		how = 2
	}
	if cap := m.Cap(r, c); best > cap {
		best = cap
	}
	g.SetA(r, c, best)
	g.SetB(r, c, how)
}

// Mass returns the total reconstructed brightness of the grid after a
// sweep — the scalar summary of a reconstruction run.
func (m *MorphRecon) Mass(g *grid.Grid) int64 {
	var sum int64
	for _, v := range g.IntA {
		sum += int64(v)
	}
	return sum
}

// LiveFraction returns the expected share of open pixels for a
// threshold, the closed-form density behind the cost model's live-cell
// scaling.
func MorphReconLiveFraction(threshold int) float64 {
	if threshold <= 0 {
		return 1
	}
	if threshold > 255 {
		return 0
	}
	return float64(256-threshold) / 256
}
