package apps

import (
	"time"

	"repro/internal/cpuexec"
	"repro/internal/grid"
	"repro/internal/kernels"
)

// CalibrateTSize measures a kernel's task granularity empirically
// against the synthetic unit: both the kernel and a one-iteration
// synthetic kernel are swept serially on the host CPU, and the ratio of
// their per-cell costs is the measured tsize (the paper's Section 3.2.1
// mapping, done by measurement instead of analysis). Use it to place a
// custom kernel on the tsize scale before registering it:
//
//	app.Granularity = func(Values) (float64, int, error) {
//	    return measuredTSize, k.DSize(), nil
//	}
//
// The measurement sweeps a small square grid several times and keeps
// the fastest sweep, so one-off scheduling noise is discarded; it is
// still a wall-clock measurement and should be treated as an estimate
// (run it on an idle machine, or round to the nearest half unit).
func CalibrateTSize(k kernels.Kernel) float64 {
	const dim = 96
	unit := perCellNs(kernels.NewSynthetic(1, 0), dim)
	if unit <= 0 {
		return 0
	}
	return perCellNs(k, dim) / unit
}

// perCellNs returns the fastest observed per-cell cost of a serial
// sweep over a dim x dim grid.
func perCellNs(k kernels.Kernel, dim int) float64 {
	const sweeps = 5
	g := grid.NewRect(dim, dim, k.DSize())
	best := 0.0
	for i := 0; i < sweeps; i++ {
		start := time.Now()
		cpuexec.RunSerial(k, g)
		ns := float64(time.Since(start).Nanoseconds())
		if i == 0 || ns < best {
			best = ns
		}
	}
	return best / float64(dim*dim)
}
