package tunecache

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/plan"
)

func invInst(dim int) plan.Instance { return plan.Instance{Dim: dim, TSize: 200, DSize: 1} }

// TestInvalidateSystemTargeted proves the promotion-invalidation
// contract: only the named system's entries drop, other systems keep
// their resident plans and their hit counters untouched.
func TestInvalidateSystemTargeted(t *testing.T) {
	c := NewShardedCtx(256, 4, func(_ context.Context, system string, inst plan.Instance) (Plan, error) {
		return Plan{RTimeNs: float64(inst.Dim)}, nil
	})
	for dim := 100; dim < 116; dim++ {
		for _, sys := range []string{"alpha", "beta"} {
			if _, _, err := c.Get(sys, invInst(dim)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Warm hit counters on both systems.
	for dim := 100; dim < 116; dim++ {
		c.Get("alpha", invInst(dim))
		c.Get("beta", invInst(dim))
	}
	before := c.SystemStats()
	if before["beta"].Hits != 16 || before["beta"].Size != 16 {
		t.Fatalf("beta warmup stats = %+v", before["beta"])
	}

	n := c.InvalidateSystem("alpha")
	if n != 16 {
		t.Fatalf("invalidated %d entries, want 16", n)
	}

	after := c.SystemStats()
	if after["alpha"].Size != 0 || after["alpha"].Invalidations != 16 {
		t.Fatalf("alpha post-invalidation stats = %+v", after["alpha"])
	}
	if after["beta"].Size != 16 || after["beta"].Hits != before["beta"].Hits || after["beta"].Invalidations != 0 {
		t.Fatalf("beta must be untouched: before %+v after %+v", before["beta"], after["beta"])
	}
	// Beta still hits; alpha re-predicts.
	if _, out, _ := c.Get("beta", invInst(100)); out != Hit {
		t.Fatalf("beta lookup = %v, want Hit", out)
	}
	if _, out, _ := c.Get("alpha", invInst(100)); out != Miss {
		t.Fatalf("alpha lookup = %v, want Miss", out)
	}
	if got := c.Stats().Invalidations; got != 16 {
		t.Fatalf("aggregate Invalidations = %d, want 16", got)
	}

	if c.InvalidateSystem("gamma") != 0 {
		t.Fatal("unknown system must invalidate nothing")
	}
}

// TestInvalidateSystemInFlight invalidates while a predict is in
// flight: the waiters still get the value, but it must not be cached —
// the next lookup predicts against the new model.
func TestInvalidateSystemInFlight(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	var calls atomic.Int64
	c := NewShardedCtx(64, 1, func(_ context.Context, system string, inst plan.Instance) (Plan, error) {
		if calls.Add(1) == 1 {
			close(started)
			<-release
		}
		return Plan{RTimeNs: float64(calls.Load())}, nil
	})

	done := make(chan Plan, 1)
	go func() {
		p, _, _ := c.Get("alpha", invInst(100))
		done <- p
	}()
	<-started
	if n := c.InvalidateSystem("alpha"); n != 1 {
		t.Fatalf("invalidated %d, want the 1 in-flight entry", n)
	}
	close(release)
	if p := <-done; p.RTimeNs != 1 {
		t.Fatalf("in-flight waiter got %+v, want the flight's own value", p)
	}
	// The dropped flight must not have been cached.
	if _, out, _ := c.Get("alpha", invInst(100)); out != Miss {
		t.Fatalf("post-invalidation lookup = %v, want Miss (value must not be cached)", out)
	}
	if n := c.Stats().Size; n != 1 {
		t.Fatalf("size = %d, want 1 (only the fresh predict resident)", n)
	}
}

// TestInvalidateSystemConcurrent hammers Get on two systems while
// repeatedly invalidating one of them; run under -race this is the
// promotion-vs-serving torture test. Every Get must succeed, and the
// untouched system's entries must stay resident throughout.
func TestInvalidateSystemConcurrent(t *testing.T) {
	c := NewShardedCtx(512, 8, func(_ context.Context, system string, inst plan.Instance) (Plan, error) {
		return Plan{RTimeNs: float64(inst.Dim)}, nil
	})
	for dim := 100; dim < 132; dim++ {
		c.Get("stable", invInst(dim))
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				sys := "churn"
				if i%2 == 0 {
					sys = "stable"
				}
				p, _, err := c.Get(sys, invInst(100+(i+g)%32))
				if err != nil {
					t.Errorf("Get: %v", err)
					return
				}
				if p.RTimeNs != float64(100+(i+g)%32) {
					t.Errorf("Get returned wrong plan: %+v", p)
					return
				}
			}
		}(g)
	}
	for i := 0; i < 200; i++ {
		c.InvalidateSystem("churn")
	}
	close(stop)
	wg.Wait()

	st := c.SystemStats()
	if st["stable"].Size != 32 {
		t.Fatalf("stable system lost entries: %+v", st["stable"])
	}
	if st["stable"].Invalidations != 0 {
		t.Fatalf("stable system was invalidated: %+v", st["stable"])
	}
}
