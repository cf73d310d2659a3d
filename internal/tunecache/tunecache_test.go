package tunecache

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/plan"
)

func inst(dim int) plan.Instance {
	return plan.Instance{Dim: dim, TSize: 100, DSize: 1}
}

func planFor(dim int) Plan {
	return Plan{Par: plan.Params{CPUTile: 8, Band: dim - 1, GPUTile: 1, Halo: -1},
		RTimeNs: float64(dim), SerialNs: float64(10 * dim)}
}

func TestGetMissThenHit(t *testing.T) {
	var calls atomic.Int64
	c := NewShardedCtx(4, 0, func(_ context.Context, system string, in plan.Instance) (Plan, error) {
		calls.Add(1)
		return planFor(in.MaxSide()), nil
	})
	p, out, err := c.Get("sys", inst(500))
	if err != nil || out != Miss {
		t.Fatalf("first Get = (%v, %v, %v), want miss", p, out, err)
	}
	if p.RTimeNs != 500 {
		t.Errorf("plan RTimeNs = %v, want 500", p.RTimeNs)
	}
	p2, out, err := c.Get("sys", inst(500))
	if err != nil || out != Hit {
		t.Fatalf("second Get outcome = %v (%v), want hit", out, err)
	}
	if p2 != p {
		t.Errorf("hit returned %+v, want %+v", p2, p)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("predict ran %d times, want 1", got)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Coalesced != 0 || st.Size != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss / size 1", st)
	}
}

func TestSquareAndRectSpellingsShareEntries(t *testing.T) {
	var calls atomic.Int64
	c := NewShardedCtx(4, 0, func(_ context.Context, system string, in plan.Instance) (Plan, error) {
		calls.Add(1)
		return planFor(in.MaxSide()), nil
	})
	if _, out, _ := c.Get("sys", plan.Instance{Dim: 700, TSize: 10, DSize: 1}); out != Miss {
		t.Fatalf("dim spelling: outcome %v, want miss", out)
	}
	if _, out, _ := c.Get("sys", plan.Instance{Rows: 700, Cols: 700, TSize: 10, DSize: 1}); out != Hit {
		t.Fatalf("rows/cols spelling: outcome %v, want hit", out)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("predict ran %d times, want 1", got)
	}
}

// TestConcurrentMissesCoalesce is the singleflight guarantee: N
// goroutines miss the same cold key while the predict is deliberately
// held open, and exactly one underlying predict runs.
func TestConcurrentMissesCoalesce(t *testing.T) {
	const n = 32
	var calls atomic.Int64
	release := make(chan struct{})
	c := NewShardedCtx(4, 0, func(_ context.Context, system string, in plan.Instance) (Plan, error) {
		calls.Add(1)
		<-release
		return planFor(in.MaxSide()), nil
	})

	var wg sync.WaitGroup
	outcomes := make([]Outcome, n)
	plans := make([]Plan, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, out, err := c.Get("sys", inst(1900))
			if err != nil {
				t.Errorf("Get: %v", err)
			}
			outcomes[i], plans[i] = out, p
		}(i)
	}

	// Wait until every goroutine has registered against the in-flight
	// entry (the leader counts as the miss, the rest as coalesced), then
	// let the predict finish.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := c.Stats()
		if st.Misses+st.Coalesced == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines never registered: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("predict ran %d times, want exactly 1", got)
	}
	misses, coalesced := 0, 0
	for i, out := range outcomes {
		switch out {
		case Miss:
			misses++
		case Coalesced:
			coalesced++
		default:
			t.Errorf("goroutine %d outcome %v", i, out)
		}
		if plans[i] != planFor(1900) {
			t.Errorf("goroutine %d plan %+v", i, plans[i])
		}
	}
	if misses != 1 || coalesced != n-1 {
		t.Errorf("misses = %d, coalesced = %d, want 1 and %d", misses, coalesced, n-1)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Coalesced != n-1 || st.Hits != 0 {
		t.Errorf("stats = %+v", st)
	}
}

// TestLRUEvictionOrder: with capacity 2, touching A keeps it alive and
// inserting C evicts the least recently used B.
func TestLRUEvictionOrder(t *testing.T) {
	var calls atomic.Int64
	c := NewShardedCtx(2, 0, func(_ context.Context, system string, in plan.Instance) (Plan, error) {
		calls.Add(1)
		return planFor(in.MaxSide()), nil
	})
	a, b, d := inst(100), inst(200), inst(300)
	c.Get("sys", a) // miss
	c.Get("sys", b) // miss
	c.Get("sys", a) // hit: A is now most recent
	c.Get("sys", d) // miss: evicts B
	if st := c.Stats(); st.Evictions != 1 || st.Size != 2 {
		t.Fatalf("stats after eviction = %+v, want 1 eviction, size 2", st)
	}
	if _, out, _ := c.Get("sys", a); out != Hit {
		t.Errorf("A should have survived, got %v", out)
	}
	if _, out, _ := c.Get("sys", d); out != Hit {
		t.Errorf("C should be resident, got %v", out)
	}
	if _, out, _ := c.Get("sys", b); out != Miss {
		t.Errorf("B should have been evicted, got %v", out)
	}
}

func TestErrorsAreNotCached(t *testing.T) {
	var calls atomic.Int64
	boom := errors.New("boom")
	c := NewShardedCtx(4, 0, func(_ context.Context, system string, in plan.Instance) (Plan, error) {
		if calls.Add(1) == 1 {
			return Plan{}, boom
		}
		return planFor(in.MaxSide()), nil
	})
	if _, _, err := c.Get("sys", inst(500)); !errors.Is(err, boom) {
		t.Fatalf("first Get err = %v, want boom", err)
	}
	if _, out, err := c.Get("sys", inst(500)); err != nil || out != Miss {
		t.Fatalf("retry = (%v, %v), want clean miss", out, err)
	}
	st := c.Stats()
	if st.Errors != 1 || st.Misses != 2 || st.Size != 1 {
		t.Errorf("stats = %+v, want 1 error, 2 misses, size 1", st)
	}
}

// TestPanickingPredictSettlesTheFlight: a predict that panics must not
// wedge the key — waiters get an error and a later Get retries.
func TestPanickingPredictSettlesTheFlight(t *testing.T) {
	var calls atomic.Int64
	release := make(chan struct{})
	c := NewShardedCtx(4, 0, func(_ context.Context, system string, in plan.Instance) (Plan, error) {
		if calls.Add(1) == 1 {
			<-release
			panic("model exploded")
		}
		return planFor(in.MaxSide()), nil
	})

	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = c.Get("sys", inst(900))
		}(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := c.Stats()
		if st.Misses+st.Coalesced == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines never registered: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	for i, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "panicked") {
			t.Errorf("goroutine %d err = %v, want predict-panicked error", i, err)
		}
	}
	// The key must not be wedged: the next Get runs a fresh predict.
	if _, out, err := c.Get("sys", inst(900)); err != nil || out != Miss {
		t.Fatalf("retry after panic = (%v, %v), want clean miss", out, err)
	}
}

func TestGetValidates(t *testing.T) {
	c := NewShardedCtx(4, 0, func(_ context.Context, system string, in plan.Instance) (Plan, error) {
		return Plan{}, nil
	})
	if _, _, err := c.Get("sys", plan.Instance{Dim: 0, TSize: 1}); err == nil {
		t.Error("invalid instance must be rejected")
	}
	if _, _, err := c.Get("", inst(500)); err == nil {
		t.Error("empty system must be rejected")
	}
	if st := c.Stats(); st.Size != 0 {
		t.Errorf("rejected Gets must not insert: %+v", st)
	}
}

func TestKeyStability(t *testing.T) {
	sq := plan.Instance{Dim: 700, TSize: 0.5, DSize: 0}
	rc := plan.Instance{Rows: 700, Cols: 700, TSize: 0.5, DSize: 0}
	if Key("s", sq) != Key("s", rc) {
		t.Errorf("square spellings differ: %q vs %q", Key("s", sq), Key("s", rc))
	}
	rect := plan.Instance{Rows: 600, Cols: 1400, TSize: 0.5, DSize: 0}
	if got, want := Key("s", rect), "s|600x1400|t=0.5|d=0"; got != want {
		t.Errorf("rect key = %q, want %q", got, want)
	}
}

// TestConcurrentMixedWorkload hammers the cache from many goroutines
// under -race: distinct keys, shared keys, and eviction pressure at once.
func TestConcurrentMixedWorkload(t *testing.T) {
	var calls atomic.Int64
	c := NewShardedCtx(8, 0, func(_ context.Context, system string, in plan.Instance) (Plan, error) {
		calls.Add(1)
		return planFor(in.MaxSide()), nil
	})
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				dim := 100 + 100*((g+i)%12)
				p, _, err := c.Get(fmt.Sprintf("sys%d", i%2), inst(dim))
				if err != nil {
					t.Errorf("Get: %v", err)
					return
				}
				if p != planFor(dim) {
					t.Errorf("wrong plan for dim %d: %+v", dim, p)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Lookups() != 16*200 {
		t.Errorf("lookups = %d, want %d", st.Lookups(), 16*200)
	}
	if st.Size > 8 {
		t.Errorf("size %d exceeds capacity 8", st.Size)
	}
}

// TestSystemStats: the per-system breakdown must attribute every
// counter to the system whose traffic caused it, including evictions.
func TestSystemStats(t *testing.T) {
	fail := errors.New("predict failed")
	c := NewShardedCtx(2, 0, func(_ context.Context, system string, in plan.Instance) (Plan, error) {
		if system == "broken" {
			return Plan{}, fail
		}
		return planFor(in.MaxSide()), nil
	})

	// sysA: one miss, one hit. sysB: one miss. broken: one error.
	c.Get("sysA", inst(100))
	c.Get("sysA", inst(100))
	c.Get("sysB", inst(200))
	if _, _, err := c.Get("broken", inst(300)); err == nil {
		t.Fatal("broken system must fail")
	}
	// Two more sysB misses overflow the capacity-2 cache; the LRU victim
	// is sysA's entry, then sysB's own oldest.
	c.Get("sysB", inst(400))
	c.Get("sysB", inst(500))

	st := c.SystemStats()
	a, b := st["sysA"], st["sysB"]
	if a.Hits != 1 || a.Misses != 1 || a.Errors != 0 {
		t.Errorf("sysA = %+v, want 1 hit 1 miss", a)
	}
	if a.Evictions != 1 || a.Size != 0 {
		t.Errorf("sysA = %+v, want its entry evicted", a)
	}
	if b.Misses != 3 || b.Evictions != 1 || b.Size != 2 {
		t.Errorf("sysB = %+v, want 3 misses 1 eviction size 2", b)
	}
	if br := st["broken"]; br.Errors != 1 || br.Misses != 1 || br.Size != 0 {
		t.Errorf("broken = %+v, want 1 miss 1 error", br)
	}
	if a.Capacity != 2 || b.Capacity != 2 {
		t.Errorf("capacity not propagated: %+v %+v", a, b)
	}

	// The aggregate must equal the sum of the parts.
	agg := c.Stats()
	var hits, misses, evs, errs uint64
	var size int
	for _, s := range st {
		hits += s.Hits
		misses += s.Misses
		evs += s.Evictions
		errs += s.Errors
		size += s.Size
	}
	if hits != agg.Hits || misses != agg.Misses || evs != agg.Evictions || errs != agg.Errors || size != agg.Size {
		t.Errorf("per-system sum (h%d m%d e%d x%d s%d) != aggregate %+v", hits, misses, evs, errs, size, agg)
	}
}

// TestSystemStatsBounded: per-system counters must not leak memory when
// a caller feeds unbounded distinct system names — overflow aggregates
// under OverflowSystem.
func TestSystemStatsBounded(t *testing.T) {
	c := NewShardedCtx(4, 0, func(_ context.Context, system string, in plan.Instance) (Plan, error) {
		return planFor(in.MaxSide()), nil
	})
	const n = 1200
	for i := 0; i < n; i++ {
		if _, _, err := c.Get(fmt.Sprintf("sys-%04d", i), inst(100)); err != nil {
			t.Fatal(err)
		}
	}
	st := c.SystemStats()
	// Bound: the tracked counters, the overflow bucket, and a Size-only
	// row per resident entry whose counters landed in the overflow.
	if limit := maxTrackedSystems + 1 + c.cap; len(st) > limit {
		t.Errorf("tracked systems = %d, want <= %d", len(st), limit)
	}
	over := st[OverflowSystem]
	if over.Misses == 0 {
		t.Errorf("overflow bucket empty: %+v", over)
	}
	var misses uint64
	for _, s := range st {
		misses += s.Misses
	}
	if misses != n {
		t.Errorf("total misses across buckets = %d, want %d", misses, n)
	}
}
