package tunecache

import (
	"context"
	"sync"
	"testing"

	"repro/internal/plan"
)

func TestNewShardedClampsShardCount(t *testing.T) {
	predict := func(context.Context, string, plan.Instance) (Plan, error) { return Plan{}, nil }
	cases := []struct {
		capacity, shards, want int
	}{
		{2, 16, 1},        // tiny cache collapses to one shard (exact LRU)
		{8, 16, 1},        // one minShardCapacity slice only
		{64, 4, 4},        // explicit count honored when capacity allows
		{64, 16, 8},       // clamped to capacity/minShardCapacity
		{1024, 1, 1},      // explicit single shard always honored
		{1 << 20, 16, 16}, // large cache keeps the request
	}
	for _, tc := range cases {
		c := NewShardedCtx(tc.capacity, tc.shards, predict)
		if got := len(c.ShardStats()); got != tc.want {
			t.Errorf("NewShardedCtx(%d, %d) has %d shards, want %d",
				tc.capacity, tc.shards, got, tc.want)
		}
		if c.cap != tc.capacity {
			t.Errorf("capacity %d mangled to %d", tc.capacity, c.cap)
		}
	}
}

// TestShardCapacitySumsToTotal: the per-shard bounds must partition the
// requested capacity exactly, including when it does not divide evenly.
func TestShardCapacitySumsToTotal(t *testing.T) {
	c := NewShardedCtx(100, 3, nil)
	if n := len(c.ShardStats()); n != 3 {
		t.Fatalf("shards = %d, want 3", n)
	}
	sum := 0
	for _, s := range c.shards {
		if s.cap < 100/3 {
			t.Errorf("shard bound %d below fair share", s.cap)
		}
		sum += s.cap
	}
	if sum != 100 {
		t.Errorf("shard bounds sum to %d, want 100", sum)
	}
}

// TestShardDistribution: distinct keys must spread across the shards
// rather than pile onto one — the whole point of sharding.
func TestShardDistribution(t *testing.T) {
	c := NewShardedCtx(1024, 8, func(_ context.Context, system string, in plan.Instance) (Plan, error) {
		return planFor(in.MaxSide()), nil
	})
	if n := len(c.ShardStats()); n != 8 {
		t.Fatalf("shards = %d, want 8", n)
	}
	const keys = 512
	for i := 0; i < keys; i++ {
		if _, _, err := c.Get("sys", inst(100+i)); err != nil {
			t.Fatal(err)
		}
	}
	lens := c.shardLens()
	total := 0
	for i, n := range lens {
		if n == 0 {
			t.Errorf("shard %d empty after %d distinct keys", i, keys)
		}
		// With 512 keys over 8 shards (fair share 64), any shard holding
		// 4x its share indicates a broken hash.
		if n > 4*keys/len(lens) {
			t.Errorf("shard %d holds %d of %d keys (fair share %d)", i, n, keys, keys/len(lens))
		}
		total += n
	}
	if total != keys {
		t.Errorf("resident total %d, want %d", total, keys)
	}
}

// TestShardStatsSumToAggregate: the per-shard telemetry snapshots must
// partition the aggregate counters exactly — /metrics per-shard series
// and the /v1/stats totals render from the same underlying numbers.
func TestShardStatsSumToAggregate(t *testing.T) {
	c := NewShardedCtx(1024, 8, func(_ context.Context, system string, in plan.Instance) (Plan, error) {
		return planFor(in.MaxSide()), nil
	})
	for i := 0; i < 256; i++ {
		if _, _, err := c.Get("sys", inst(100+i%64)); err != nil {
			t.Fatal(err)
		}
	}
	per := c.ShardStats()
	if len(per) != 8 {
		t.Fatalf("ShardStats returned %d entries, want 8", len(per))
	}
	var sum Stats
	for _, st := range per {
		sum.add(st)
	}
	agg := c.Stats()
	if sum.Hits != agg.Hits || sum.Misses != agg.Misses ||
		sum.Coalesced != agg.Coalesced || sum.Size != agg.Size {
		t.Fatalf("shard stats sum %+v disagrees with aggregate %+v", sum, agg)
	}
	if agg.Misses != 64 || agg.Hits != 256-64 {
		t.Fatalf("unexpected traffic split: %+v", agg)
	}
}

// TestShardedStress hammers a multi-shard cache from many goroutines
// with overlapping Get traffic racing the Stats, ShardStats and
// SystemStats readers. Run under -race in CI; correctness here is "no
// race, no deadlock, consistent counters".
func TestShardedStress(t *testing.T) {
	c := NewShardedCtx(256, 8, func(_ context.Context, system string, in plan.Instance) (Plan, error) {
		return planFor(in.MaxSide()), nil
	})
	shards := len(c.ShardStats())
	if shards < 2 {
		t.Fatalf("want a multi-shard cache, got %d shards", shards)
	}

	const goroutines = 16
	const iters = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				dim := 100 + (g*31+i*7)%160
				switch i % 8 {
				case 6:
					if per := c.ShardStats(); len(per) != shards {
						t.Errorf("ShardStats returned %d entries, want %d", len(per), shards)
						return
					}
				case 7:
					if sys := c.SystemStats()["sys"]; sys.Size > c.cap {
						t.Errorf("system size %d exceeds capacity %d", sys.Size, c.cap)
						return
					}
				default:
					p, _, err := c.Get("sys", inst(dim))
					if err != nil {
						t.Errorf("Get: %v", err)
						return
					}
					if p != planFor(dim) {
						t.Errorf("wrong plan for dim %d: %+v", dim, p)
						return
					}
				}
				_ = c.Stats()
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Size > c.cap {
		t.Errorf("size %d exceeds capacity %d", st.Size, c.cap)
	}
	if st.Errors != 0 {
		t.Errorf("unexpected predict errors: %+v", st)
	}
	if want := uint64(goroutines * iters * 6 / 8); st.Lookups() != want {
		t.Errorf("lookups = %d, want %d", st.Lookups(), want)
	}
}
