package hw

// LaunchDurationNs returns the full modeled duration of one kernel launch:
// host launch overhead, SIMT compute (optionally inflated by GPU-tile
// serialization) and intra-work-group barrier steps. It is the single
// source of truth shared by the simulated OpenCL runtime and the analytic
// estimator, so the two can never diverge.
func (g GPUModel) LaunchDurationNs(cpu CPUModel, points int, tsize float64, dsize, syncSteps int, inflate float64) float64 {
	c := g.LaunchCost(tsize, cpu.PerIterNs, dsize)
	return c.DurationNs(points, syncSteps, inflate)
}

// LaunchCost is the device's launch-duration model with the factors that
// are fixed for one instance on one device bound once. Callers that cost
// many launches in a row (the analytic estimator) use it instead of
// LaunchDurationNs so the per-launch work is the arithmetic alone; both
// evaluate the same expressions, so their results are bit-identical.
type LaunchCost struct {
	// LaunchNs is the host-side cost of one kernel invocation.
	LaunchNs     float64
	barrierNs    float64
	width        int
	tsize        float64
	cpuPerIterNs float64
	eff          float64
}

// LaunchCost binds the device to an instance's granularity tsize and
// element size dsize on a host whose per-iteration time is cpuPerIterNs.
func (g GPUModel) LaunchCost(tsize, cpuPerIterNs float64, dsize int) LaunchCost {
	return LaunchCost{
		LaunchNs:     g.LaunchNs,
		barrierNs:    g.BarrierNs,
		width:        g.Width(),
		tsize:        tsize,
		cpuPerIterNs: cpuPerIterNs,
		eff:          g.EffFactor(dsize),
	}
}

// Width returns the device's SIMT width: the points one pass covers.
func (c *LaunchCost) Width() int { return c.width }

// Passes returns the number of SIMT passes a launch of points takes. A
// launch's duration depends on its points only through this count, so
// DurationNs(Passes(p)*Width(), …) equals DurationNs(p, …) bit for bit.
func (c *LaunchCost) Passes(points int) int { return passes(points, c.width) }

// kernelNs returns the on-device execution time of a kernel covering the
// given number of points, excluding launch overhead.
func (c *LaunchCost) kernelNs(points int) float64 {
	return float64(padPoints(points, c.width)) * c.tsize * c.cpuPerIterNs / c.eff
}

// DurationNs returns the full duration of one launch; see
// GPUModel.LaunchDurationNs.
func (c *LaunchCost) DurationNs(points, syncSteps int, inflate float64) float64 {
	if inflate <= 0 {
		inflate = 1
	}
	return c.LaunchNs + c.kernelNs(points)*inflate + float64(syncSteps)*c.barrierNs
}
