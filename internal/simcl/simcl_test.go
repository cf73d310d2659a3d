package simcl

import (
	"math"
	"testing"

	"repro/internal/hw"
)

func newTestPlatform() *Platform {
	return NewPlatform(hw.I7_2600K())
}

func TestStartPaysOnce(t *testing.T) {
	p := newTestPlatform()
	d := p.Devs[0]
	var t1, t2 float64
	d.Start(func() { t1 = p.Eng.Now() })
	d.Start(func() { t2 = p.Eng.Now() })
	p.Eng.Run()
	if t1 != d.Model.StartupNs {
		t.Errorf("first start finished at %v, want %v", t1, d.Model.StartupNs)
	}
	if t2 != 0 {
		// The second Start was enqueued at time 0 and completes instantly.
		t.Errorf("second start must be free, finished at %v", t2)
	}
	if d.Stats.StartupNs != d.Model.StartupNs {
		t.Errorf("startup accounted %v, want %v", d.Stats.StartupNs, d.Model.StartupNs)
	}
}

func TestKernelQueueInOrder(t *testing.T) {
	p := newTestPlatform()
	d := p.Devs[0]
	d.Start(nil)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		d.EnqueueKernel(KernelReq{Points: 100, TSize: 10, DSize: 1}, func() {
			order = append(order, i)
		})
	}
	p.Eng.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("kernels completed out of order: %v", order)
		}
	}
	if d.Stats.Kernels != 5 {
		t.Errorf("kernel count = %d, want 5", d.Stats.Kernels)
	}
}

func TestKernelDurationModel(t *testing.T) {
	p := newTestPlatform()
	d := p.Devs[0]
	req := KernelReq{Points: 512, TSize: 100, DSize: 1}
	// Launch overhead plus whole SIMT passes at the device's effective
	// throughput.
	m := d.Model
	want := m.LaunchNs + float64(m.PaddedPoints(512))*100*p.Sys.CPU.PerIterNs/m.EffFactor(1)
	if got := d.Duration(req); got != want {
		t.Errorf("Duration = %v, want %v", got, want)
	}
	// Barriers and inflation must add time.
	req2 := req
	req2.SyncSteps = 7
	req2.Inflate = 2
	if d.Duration(req2) <= d.Duration(req) {
		t.Error("sync steps + inflation must increase duration")
	}
}

func TestEnqueueBeforeStartPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	p := newTestPlatform()
	p.Devs[0].EnqueueKernel(KernelReq{Points: 1, TSize: 1}, nil)
}

func TestFunctionalBodyRuns(t *testing.T) {
	p := newTestPlatform()
	p.Functional = true
	d := p.Devs[0]
	d.Start(nil)
	ran := false
	d.EnqueueKernel(KernelReq{Points: 1, TSize: 1, Body: func() { ran = true }}, nil)
	p.Eng.Run()
	if !ran {
		t.Error("functional body must run")
	}
}

func TestNonFunctionalSkipsBody(t *testing.T) {
	p := newTestPlatform()
	d := p.Devs[0]
	d.Start(nil)
	ran := false
	d.EnqueueKernel(KernelReq{Points: 1, TSize: 1, Body: func() { ran = true }}, nil)
	p.Eng.Run()
	if ran {
		t.Error("timing-only mode must not execute bodies")
	}
}

func TestTransfersContendOnLink(t *testing.T) {
	// Two devices transferring simultaneously must serialize on the link:
	// total time ~= 2 transfers, not 1.
	p := newTestPlatform()
	a, b := p.Devs[0], p.Devs[1]
	a.Start(nil)
	b.Start(nil)
	bytes := 4_000_000
	one := p.Sys.Link.XferNs(bytes)
	var endA, endB float64
	p.Eng.Schedule(a.Model.StartupNs, func() {
		a.EnqueueXfer(bytes, func() { endA = p.Eng.Now() })
		b.EnqueueXfer(bytes, func() { endB = p.Eng.Now() })
	})
	p.Eng.Run()
	start := a.Model.StartupNs
	if endA-start != one {
		t.Errorf("first transfer took %v, want %v", endA-start, one)
	}
	if endB-start != 2*one {
		t.Errorf("second transfer must wait for the link: %v, want %v", endB-start, 2*one)
	}
}

func TestKernelsOnDifferentDevicesOverlap(t *testing.T) {
	// Unlike transfers, kernels on distinct devices run concurrently.
	p := newTestPlatform()
	a, b := p.Devs[0], p.Devs[1]
	a.Start(nil)
	b.Start(nil)
	req := KernelReq{Points: 100000, TSize: 1000, DSize: 1}
	dur := a.Duration(req)
	var endA, endB float64
	p.Eng.Schedule(a.Model.StartupNs, func() {
		a.EnqueueKernel(req, func() { endA = p.Eng.Now() })
		b.EnqueueKernel(req, func() { endB = p.Eng.Now() })
	})
	p.Eng.Run()
	if endA != endB {
		t.Errorf("independent devices must overlap: %v vs %v", endA, endB)
	}
	if got := endA - a.Model.StartupNs; math.Abs(got-dur) > 1e-6*dur {
		t.Errorf("kernel took %v, want %v", got, dur)
	}
}

func TestXferStats(t *testing.T) {
	p := newTestPlatform()
	d := p.Devs[0]
	d.Start(nil)
	d.EnqueueXfer(1234, nil)
	d.EnqueueXfer(4321, nil)
	p.Eng.Run()
	if d.Stats.Transfers != 2 || d.Stats.XferBytes != 5555 {
		t.Errorf("xfer stats wrong: %+v", d.Stats)
	}
}

func TestHostCompute(t *testing.T) {
	p := newTestPlatform()
	var end float64
	p.HostCompute(5000, func() { end = p.Eng.Now() })
	p.Eng.Run()
	if end != 5000 {
		t.Errorf("host compute finished at %v, want 5000", end)
	}
}

func TestPaddedSlotAccounting(t *testing.T) {
	p := newTestPlatform()
	d := p.Devs[0]
	d.Start(nil)
	d.EnqueueKernel(KernelReq{Points: 1, TSize: 1, DSize: 0}, nil)
	p.Eng.Run()
	if d.Stats.PaddedSlots != d.Model.Width() {
		t.Errorf("padded slots = %d, want %d", d.Stats.PaddedSlots, d.Model.Width())
	}
}
