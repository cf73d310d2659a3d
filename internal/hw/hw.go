// Package hw defines the performance models of the heterogeneous systems
// the paper evaluates (Table 4). Real GPUs are unavailable in this
// reproduction, so each machine is described by a small set of calibrated
// constants from which the simulator derives virtual execution times.
//
// Calibration targets the paper's qualitative shapes rather than absolute
// numbers: the i3's slow cores make GPU offload profitable at lower dim and
// tsize thresholds than on the i7s; growing dsize raises those thresholds
// on every system; maximum speedup over the tuned serial baseline lands
// near 20x with single-digit averages; and GPU-only execution loses to
// CPU-only execution on average on the fast-CPU i7 systems. The
// calibration tests in this package and in internal/experiments pin these
// shapes.
package hw

import "fmt"

// CPUModel describes a multicore CPU.
type CPUModel struct {
	// Name is the marketing name, e.g. "i7-2600K".
	Name string
	// FreqMHz and MemGB mirror the paper's Table 4 and are reporting-only.
	FreqMHz int
	MemGB   float64
	// Cores is the hyper-threaded (logical) core count as listed in
	// Table 4.
	Cores int
	// PerIterNs is the execution time of one synthetic-kernel iteration on
	// a single core: the unit of the paper's tsize scale on this machine.
	PerIterNs float64
	// EffParallel is the effective parallel speedup over one core when all
	// logical cores are busy (hyper-threads contribute fractionally).
	EffParallel float64
	// MemLatencyNs scales the per-point memory penalty that cpu-tile
	// mitigates: small tiles thrash the cache, large tiles reuse it.
	MemLatencyNs float64
	// TileBarrierNs is the synchronization cost per tile-diagonal of the
	// parallel tiled executor.
	TileBarrierNs float64
}

// MissRate returns the modeled cache-miss fraction for square tiles of
// side ct. It falls steeply from untiled (ct=1) execution to good reuse
// around ct=8..10 and creeps back up for tiles too large for the cache,
// reproducing the classical tiling curve the paper cites ([10], [13]).
func MissRate(ct int) float64 {
	switch {
	case ct <= 1:
		return 1.0
	case ct == 2:
		return 0.55
	case ct == 3:
		return 0.42
	case ct == 4:
		return 0.33
	case ct <= 6:
		return 0.27
	case ct <= 8:
		return 0.22
	case ct <= 12:
		return 0.20
	case ct <= 24:
		return 0.24
	default:
		return 0.32
	}
}

// MemPenaltyNs returns the per-point memory cost for tile side ct and the
// given element size in bytes.
func (c CPUModel) MemPenaltyNs(ct, elemBytes int) float64 {
	return MissRate(ct) * (c.MemLatencyNs + 0.15*float64(elemBytes))
}

// PointNs returns the single-core time to compute one point of
// granularity tsize with elements of elemBytes bytes under tile side ct.
func (c CPUModel) PointNs(tsize float64, ct, elemBytes int) float64 {
	return tsize*c.PerIterNs + c.MemPenaltyNs(ct, elemBytes)
}

// GPUModel describes one GPU device.
type GPUModel struct {
	// Name is the device name, e.g. "GTX 480".
	Name string
	// FreqMHz and MemGB mirror Table 4 and are reporting-only.
	FreqMHz int
	MemGB   float64
	// CUs is the compute-unit count from Table 4; Lanes the SIMT width
	// per unit. Width = CUs*Lanes work-items run concurrently.
	CUs, Lanes int
	// BaseFactor is the device's fully-occupied throughput relative to a
	// single CPU core of the host system at dsize=0; effective throughput
	// shrinks with dsize (uncoalesced diagonal-major accesses).
	BaseFactor float64
	// DSizePenalty controls how quickly growing element sizes erode
	// effective throughput: F(dsize) = BaseFactor / (1+DSizePenalty*dsize).
	DSizePenalty float64
	// LaunchNs is the host-side cost of one kernel invocation.
	LaunchNs float64
	// StartupNs is the one-time context creation + JIT cost, paid once per
	// device that is actually used ("the cost of starting a GPU").
	StartupNs float64
	// BarrierNs is the cost of one intra-work-group synchronization step,
	// incurred by GPU tiling.
	BarrierNs float64
}

// Width returns the number of concurrently executing work-items.
func (g GPUModel) Width() int { return g.CUs * g.Lanes }

// EffFactor returns the effective throughput factor (vs one host CPU
// core) for elements of the given dsize.
func (g GPUModel) EffFactor(dsize int) float64 {
	return g.BaseFactor / (1 + g.DSizePenalty*float64(dsize))
}

// PaddedPoints returns points rounded up to a whole number of SIMT passes:
// a diagonal shorter than the device width still occupies a full pass.
func (g GPUModel) PaddedPoints(points int) int { return padPoints(points, g.Width()) }

func padPoints(points, w int) int { return passes(points, w) * w }

// passes returns the number of SIMT passes of width w that cover points.
func passes(points, w int) int { return (points + w - 1) / w }

// LinkModel describes the PCIe interconnect shared by all devices.
type LinkModel struct {
	// LatencyNs is the fixed per-transfer cost.
	LatencyNs float64
	// BytesPerNs is the sustained bandwidth (1 byte/ns = 1 GB/s).
	BytesPerNs float64
}

// XferNs returns the time to move the given number of bytes.
func (l LinkModel) XferNs(bytes int) float64 {
	return l.LatencyNs + float64(bytes)/l.BytesPerNs
}

// System is one experimental platform: a CPU, its GPUs and their link.
type System struct {
	Name string
	CPU  CPUModel
	GPUs []GPUModel
	Link LinkModel
}

// MaxGPUs returns the number of GPUs the tuner may use; like the paper we
// cap multi-GPU execution at two devices.
func (s System) MaxGPUs() int {
	if len(s.GPUs) > 2 {
		return 2
	}
	return len(s.GPUs)
}

// String implements fmt.Stringer.
func (s System) String() string {
	return fmt.Sprintf("%s (%d cores, %d GPU(s))", s.Name, s.CPU.Cores, len(s.GPUs))
}

// I3_540 models the paper's slow-CPU, single fast GPU system:
// an Intel i3-540 (4 HT cores at the listed 1200 MHz) with one
// GeForce GTX 480 (15 CUs). Its slow cores make offload profitable at the
// paper's lower thresholds (tsize >= ~100 from dim >= ~1100 at 16-byte
// elements).
func I3_540() System {
	return System{
		Name: "i3-540",
		CPU: CPUModel{
			Name: "i3-540", FreqMHz: 1200, MemGB: 4, Cores: 4,
			PerIterNs: 5.0, EffParallel: 2.6,
			MemLatencyNs: 4.0, TileBarrierNs: 2500,
		},
		GPUs: []GPUModel{{
			Name: "GTX 480", FreqMHz: 1401, MemGB: 1.6, CUs: 15, Lanes: 32,
			BaseFactor: 26, DSizePenalty: 0.45,
			LaunchNs: 10e3, StartupNs: 120e6, BarrierNs: 1200,
		}},
		Link: LinkModel{LatencyNs: 10e3, BytesPerNs: 3.0},
	}
}

// I7_2600K models the fast-CPU, dual-GPU system: an i7-2600K (8 HT cores)
// with GTX 590 dies. The paper lists 4x GTX 590 but explores gpu-count in
// {0,1,2}; we expose two dies.
func I7_2600K() System {
	gpu := GPUModel{
		Name: "GTX 590", FreqMHz: 1215, MemGB: 1.6, CUs: 16, Lanes: 32,
		BaseFactor: 13.5, DSizePenalty: 0.2,
		LaunchNs: 10e3, StartupNs: 120e6, BarrierNs: 1000,
	}
	return System{
		Name: "i7-2600K",
		CPU: CPUModel{
			Name: "i7-2600K", FreqMHz: 1600, MemGB: 8, Cores: 8,
			PerIterNs: 2.0, EffParallel: 5.2,
			MemLatencyNs: 3.5, TileBarrierNs: 2000,
		},
		GPUs: []GPUModel{gpu, gpu},
		Link: LinkModel{LatencyNs: 8e3, BytesPerNs: 4.0},
	}
}

// I7_3820 models the fastest-CPU system: an i7-3820 (8 HT cores at
// 3601 MHz) with Tesla C2070 and C2075 accelerators (14 CUs each). Fast
// cores plus moderate GPUs give this system the paper's highest offload
// thresholds.
func I7_3820() System {
	mk := func(name string) GPUModel {
		return GPUModel{
			Name: name, FreqMHz: 1147, MemGB: 6.4, CUs: 14, Lanes: 32,
			BaseFactor: 11, DSizePenalty: 0.2,
			LaunchNs: 8e3, StartupNs: 100e6, BarrierNs: 1000,
		}
	}
	return System{
		Name: "i7-3820",
		CPU: CPUModel{
			Name: "i7-3820", FreqMHz: 3601, MemGB: 16, Cores: 8,
			PerIterNs: 1.6, EffParallel: 5.4,
			MemLatencyNs: 3.0, TileBarrierNs: 1800,
		},
		GPUs: []GPUModel{mk("Tesla C2070"), mk("Tesla C2075")},
		Link: LinkModel{LatencyNs: 8e3, BytesPerNs: 5.0},
	}
}

// Systems returns the paper's three experimental platforms in Table 4
// order.
func Systems() []System {
	return []System{I3_540(), I7_2600K(), I7_3820()}
}

// ByName returns the system with the given name, or false.
func ByName(name string) (System, bool) {
	for _, s := range Systems() {
		if s.Name == name {
			return s, true
		}
	}
	return System{}, false
}

// WithGPUCount returns a copy of sys equipped with n replicas of its
// first GPU — the platform for the paper's future-work extension of
// "incorporating more than two GPUs". The copy's MaxGPUs cap still
// reports at most 2 (the tuning-space encoding is unchanged); wider runs
// request extra devices explicitly through the engine options.
func WithGPUCount(sys System, n int) System {
	if n < 1 || len(sys.GPUs) == 0 {
		return sys
	}
	gpus := make([]GPUModel, n)
	for i := range gpus {
		gpus[i] = sys.GPUs[0]
	}
	sys.GPUs = gpus
	return sys
}
