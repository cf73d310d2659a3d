// Package simcl is a simulated OpenCL-style runtime: devices with in-order
// command queues, kernel launches and host transfers, executing in the
// virtual time of a discrete-event engine against the cost models of
// package hw.
//
// It replaces the paper's "own OpenCL harness" (Section 2). Commands incur
// modeled costs (startup, launch, SIMT passes, PCIe latency and bandwidth,
// intra-work-group barriers), and transfers contend on the single shared
// link, so two GPUs swapping halos genuinely serialize on the bus as they
// do in the paper's systems. In functional mode a kernel command carries a
// Go closure that is executed when the command completes, so simulations
// produce real numerical results as well as timings.
package simcl

import (
	"fmt"

	"repro/internal/des"
	"repro/internal/hw"
)

// Platform owns the virtual-time engine, the shared host link and the
// devices of one modeled system.
type Platform struct {
	Eng  *des.Engine
	Sys  hw.System
	Link *des.Resource
	Devs []*Device
	// Functional enables execution of kernel bodies. When false only
	// timing is simulated, which is what the exhaustive search uses.
	Functional bool
	// Trace, when non-nil, records every command span for timeline
	// inspection (see Trace.Render).
	Trace *Trace
}

// NewPlatform builds a platform for the given system.
func NewPlatform(sys hw.System) *Platform {
	p := &Platform{Eng: des.NewEngine(), Sys: sys}
	p.Link = des.NewResource(p.Eng, "pcie", 1)
	for i, g := range sys.GPUs {
		p.Devs = append(p.Devs, newDevice(p, g, i))
	}
	return p
}

// Device is one simulated GPU with an in-order command queue.
type Device struct {
	Plat    *Platform
	Model   hw.GPUModel
	Index   int
	queue   *des.Resource
	started bool
	Stats   DeviceStats
}

// DeviceStats accumulates per-device activity for breakdown reporting.
type DeviceStats struct {
	Kernels     int
	KernelNs    float64 // on-device compute including barriers
	LaunchNs    float64
	StartupNs   float64
	Transfers   int
	XferBytes   int
	XferNs      float64
	SyncSteps   int
	PointsRun   int
	PaddedSlots int
}

func newDevice(p *Platform, m hw.GPUModel, idx int) *Device {
	return &Device{
		Plat:  p,
		Model: m,
		Index: idx,
		queue: des.NewResource(p.Eng, fmt.Sprintf("gpu%d-queue", idx), 1),
	}
}

// Start pays the one-time device startup cost (context creation and
// program build). Subsequent calls complete immediately. done may be nil.
func (d *Device) Start(done func()) {
	if d.started {
		if done != nil {
			d.Plat.Eng.Schedule(0, done)
		}
		return
	}
	d.started = true
	d.Stats.StartupNs += d.Model.StartupNs
	t0 := d.Plat.Eng.Now()
	d.queue.Use(d.Model.StartupNs, func() {
		d.Plat.Trace.add(Span{Dev: d.Index, Kind: SpanStartup,
			Start: t0, End: d.Plat.Eng.Now()})
		if done != nil {
			done()
		}
	})
}

// KernelReq describes one kernel launch.
type KernelReq struct {
	// Points is the global work size (cells computed by this launch).
	Points int
	// TSize and DSize give the workload granularity for the cost model.
	TSize float64
	DSize int
	// SyncSteps is the number of intra-work-group barrier steps (0 when
	// gpu-tile is 1; 2g-1 per tile wavefront when tiled).
	SyncSteps int
	// Inflate multiplies on-device compute time; GPU tiling serializes the
	// in-tile wavefront, inflating compute by (2g-1)/g.
	Inflate float64
	// Body, when non-nil and the platform is functional, runs at command
	// completion to produce the kernel's numerical effect.
	Body func()
}

// Duration returns the modeled on-device time of the request, excluding
// queue waiting: launch overhead + SIMT compute + barrier steps. It
// delegates to the hw model shared with the analytic estimator.
func (d *Device) Duration(req KernelReq) float64 {
	return d.Model.LaunchDurationNs(d.Plat.Sys.CPU, req.Points, req.TSize,
		req.DSize, req.SyncSteps, req.Inflate)
}

// EnqueueKernel appends a kernel launch to the device's in-order queue.
// done (may be nil) runs after the command completes.
func (d *Device) EnqueueKernel(req KernelReq, done func()) {
	if !d.started {
		panic("simcl: kernel enqueued before device start")
	}
	if req.Points < 0 {
		panic(fmt.Sprintf("simcl: negative work size %d", req.Points))
	}
	dur := d.Duration(req)
	d.Stats.Kernels++
	d.Stats.LaunchNs += d.Model.LaunchNs
	d.Stats.KernelNs += dur - d.Model.LaunchNs
	d.Stats.SyncSteps += req.SyncSteps
	d.Stats.PointsRun += req.Points
	d.Stats.PaddedSlots += d.Model.PaddedPoints(req.Points)
	body := req.Body
	functional := d.Plat.Functional
	points := req.Points
	d.queue.Use(dur, func() {
		end := d.Plat.Eng.Now()
		d.Plat.Trace.add(Span{Dev: d.Index, Kind: SpanKernel,
			Start: end - dur, End: end, Detail: points})
		if functional && body != nil {
			body()
		}
		if done != nil {
			done()
		}
	})
}

// EnqueueXfer moves bytes between host and device (either direction: the
// model is symmetric). The command occupies both the device queue slot and
// the shared link, so concurrent transfers from two devices serialize.
func (d *Device) EnqueueXfer(bytes int, done func()) {
	if !d.started {
		panic("simcl: transfer enqueued before device start")
	}
	if bytes < 0 {
		panic(fmt.Sprintf("simcl: negative transfer size %d", bytes))
	}
	dur := d.Plat.Sys.Link.XferNs(bytes)
	d.Stats.Transfers++
	d.Stats.XferBytes += bytes
	d.Stats.XferNs += dur
	d.queue.Acquire(func() {
		d.Plat.Link.Use(dur, func() {
			end := d.Plat.Eng.Now()
			d.Plat.Trace.add(Span{Dev: d.Index, Kind: SpanXfer,
				Start: end - dur, End: end, Detail: bytes})
			d.queue.Release()
			if done != nil {
				done()
			}
		})
	})
}

// HostCompute occupies virtual time on the host CPU without any device:
// used for the CPU phases of the hybrid strategy. done may be nil.
func (p *Platform) HostCompute(durNs float64, done func()) {
	if durNs < 0 {
		panic(fmt.Sprintf("simcl: negative host compute %v", durNs))
	}
	t0 := p.Eng.Now()
	p.Eng.Schedule(durNs, func() {
		p.Trace.add(Span{Dev: -1, Kind: SpanHost, Start: t0, End: p.Eng.Now()})
		if done != nil {
			done()
		}
	})
}
