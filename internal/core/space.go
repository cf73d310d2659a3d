// Package core implements the paper's contribution: the autotuning
// framework for hybrid wavefront execution. It provides the Table 3 search
// space, the exhaustive search with the 90-second threshold, training-set
// generation from the synthetic application, the machine-learned tuner
// (SVM parallelism gate, REP tree for gpu-tile, M5 pruned model trees for
// cpu-tile, band and halo), and the deployment path that maps an unseen
// application's features to tuned parameters.
package core

import (
	"slices"

	"repro/internal/hw"
	"repro/internal/plan"
)

// Space enumerates the exhaustive search space. Dimension-dependent
// parameters (band, halo) are expressed as fractions so one space serves
// every instance, mirroring Table 3's ranges with the paper's
// "irregularly spaced" values.
type Space struct {
	Dims []int
	// Rects lists additional rectangular {rows, cols} shapes to explore
	// alongside the square Dims — e.g. sequence alignments of unequal
	// lengths. Each shape is crossed with every TSize and DSize, exactly
	// like a square dim.
	Rects  [][2]int
	TSizes []float64
	DSizes []int

	CPUTiles []int
	// BandFracs scale dim-1; -1 stands for the all-CPU configuration and
	// 1.0 for full offload.
	BandFracs []float64
	// HaloFracs scale the band-dependent maximum halo; -1 stands for a
	// single GPU. 0 is always included for dual-GPU systems.
	HaloFracs []float64
	GPUTiles  []int
}

// DefaultSpace returns the reproduction's standard search space, matching
// Table 3's ranges: dim 500..3100, tsize 10..12000, dsize {1,3,5},
// cpu-tile {1,2,4,8,10}, band -1..2dim-1, halo -1..max, gpu-tile
// {1,4,8,11,16,21,25}.
func DefaultSpace() Space {
	return Space{
		Dims:      []int{500, 700, 1100, 1900, 2700, 3100},
		TSizes:    []float64{10, 50, 100, 500, 1000, 2000, 4000, 6000, 8000, 10000, 12000},
		DSizes:    []int{1, 3, 5},
		CPUTiles:  []int{1, 2, 4, 8, 10},
		BandFracs: []float64{-1, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0},
		HaloFracs: []float64{-1, 0, 0.05, 0.15, 0.4, 1.0},
		GPUTiles:  []int{1, 4, 8, 11, 16, 21, 25},
	}
}

// QuickSpace returns a reduced space for tests and benchmarks: the same
// structure at a fraction of the volume.
func QuickSpace() Space {
	return Space{
		Dims:      []int{500, 1100, 1900, 2700},
		TSizes:    []float64{10, 100, 1000, 4000, 12000},
		DSizes:    []int{1, 5},
		CPUTiles:  []int{1, 4, 8},
		BandFracs: []float64{-1, 0.3, 0.7, 0.9, 1.0},
		HaloFracs: []float64{-1, 0, 0.15, 1.0},
		GPUTiles:  []int{1, 8},
	}
}

// ServingSpace returns space with its cpu-tile axis widened by 16 and 32:
// the space the tuners a daemon serves are trained on. Table 3 caps
// cpu-tile at 10, yet the fine-grained catalog apps (tsize around 1)
// run fastest on larger CPU tiles, so a tuner trained on the capped
// axis can never predict them. The paper-figure experiments keep the
// Table 3 space. The other axes are kept, and the argument's cpu-tile
// slice is not modified.
func ServingSpace(space Space) Space {
	tiles := append(append([]int(nil), space.CPUTiles...), 16, 32)
	slices.Sort(tiles)
	space.CPUTiles = slices.Compact(tiles)
	return space
}

// Instances enumerates the problem instances of the space in
// deterministic order.
func (s Space) Instances() []plan.Instance {
	var out []plan.Instance
	// Deduplicate by normalized shape so a square entry in Rects cannot
	// shadow (or double-count against) the same side length in Dims.
	seen := make(map[plan.Instance]bool)
	add := func(in plan.Instance) {
		key := in.Normalize()
		if seen[key] {
			return
		}
		seen[key] = true
		out = append(out, in)
	}
	for _, dim := range s.Dims {
		for _, ts := range s.TSizes {
			for _, ds := range s.DSizes {
				add(plan.Instance{Dim: dim, TSize: ts, DSize: ds})
			}
		}
	}
	for _, rc := range s.Rects {
		for _, ts := range s.TSizes {
			for _, ds := range s.DSizes {
				add(plan.Instance{Rows: rc[0], Cols: rc[1], TSize: ts, DSize: ds})
			}
		}
	}
	return out
}

// Configs enumerates the valid tunable configurations of the space for
// one instance on one system, deduplicating normalized equivalents (all
// all-CPU variants collapse onto one point per cpu-tile, as in the
// paper's observation that an all-CPU instance has only tens rather than
// thousands of configurations).
func (s Space) Configs(inst plan.Instance, sys hw.System) []plan.Params {
	seen := make(map[plan.Params]bool)
	var out []plan.Params
	add := func(p plan.Params) {
		p = p.Normalize()
		if seen[p] {
			return
		}
		if plan.Check(inst, p) != nil || p.GPUCount() > sys.MaxGPUs() {
			return
		}
		seen[p] = true
		out = append(out, p)
	}
	for _, ct := range s.CPUTiles {
		if ct > inst.MaxSide() {
			continue
		}
		for _, bf := range s.BandFracs {
			if bf < 0 {
				add(plan.Params{CPUTile: ct, Band: -1, GPUTile: 1, Halo: -1})
				continue
			}
			band := int(bf * float64(inst.MaxUsefulBand()))
			if band < 0 {
				band = 0
			}
			maxHalo := plan.MaxHaloFor(inst, band)
			for _, gt := range s.GPUTiles {
				for _, hf := range s.HaloFracs {
					if hf < 0 {
						add(plan.Params{CPUTile: ct, Band: band, GPUTile: gt, Halo: -1})
						continue
					}
					if sys.MaxGPUs() < 2 {
						continue
					}
					halo := int(hf * float64(maxHalo))
					add(plan.Params{CPUTile: ct, Band: band, GPUTile: gt, Halo: halo})
				}
			}
		}
	}
	return out
}

// Size returns the total number of (instance, config) evaluations the
// space induces on a system.
func (s Space) Size(sys hw.System) int {
	n := 0
	for _, inst := range s.Instances() {
		n += len(s.Configs(inst, sys))
	}
	return n
}
