package tunecache

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
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
		if got := c.Shards(); got != tc.want {
			t.Errorf("NewShardedCtx(%d, %d).Shards() = %d, want %d",
				tc.capacity, tc.shards, got, tc.want)
		}
		if c.Capacity() != tc.capacity {
			t.Errorf("capacity %d mangled to %d", tc.capacity, c.Capacity())
		}
	}
}

// TestShardCapacitySumsToTotal: the per-shard bounds must partition the
// requested capacity exactly, including when it does not divide evenly.
func TestShardCapacitySumsToTotal(t *testing.T) {
	c := NewShardedCtx(100, 3, nil)
	if c.Shards() != 3 {
		t.Fatalf("shards = %d, want 3", c.Shards())
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
	if c.Shards() != 8 {
		t.Fatalf("shards = %d, want 8", c.Shards())
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
	if len(per) != c.Shards() {
		t.Fatalf("ShardStats returned %d entries, want %d", len(per), c.Shards())
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
// with overlapping Get/Put/Save/Load/Stats traffic. Run under -race in
// CI; correctness here is "no race, no deadlock, consistent counters".
func TestShardedStress(t *testing.T) {
	c := NewShardedCtx(256, 8, func(_ context.Context, system string, in plan.Instance) (Plan, error) {
		return planFor(in.MaxSide()), nil
	})
	if c.Shards() < 2 {
		t.Fatalf("want a multi-shard cache, got %d shards", c.Shards())
	}

	// A pre-serialized donor document for concurrent Loads.
	donor := NewShardedCtx(64, 4, nil)
	for i := 0; i < 32; i++ {
		if err := donor.Put("warm", inst(5000+i), planFor(5000+i)); err != nil {
			t.Fatal(err)
		}
	}
	var donorDoc bytes.Buffer
	if err := donor.Save(&donorDoc); err != nil {
		t.Fatal(err)
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
				case 5:
					if err := c.Put("sys", inst(dim), planFor(dim)); err != nil {
						t.Errorf("Put: %v", err)
						return
					}
				case 6:
					var buf bytes.Buffer
					if err := c.Save(&buf); err != nil {
						t.Errorf("Save: %v", err)
						return
					}
				case 7:
					if _, err := c.Load(bytes.NewReader(donorDoc.Bytes())); err != nil {
						t.Errorf("Load: %v", err)
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
	if st.Size > c.Capacity() {
		t.Errorf("size %d exceeds capacity %d", st.Size, c.Capacity())
	}
	if st.Errors != 0 {
		t.Errorf("unexpected predict errors: %+v", st)
	}
}

// savedOrder decodes a Save document into its key sequence (LRU first).
func savedOrder(t *testing.T, c *Cache) []string {
	t.Helper()
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var dto struct {
		Version int `json:"version"`
		Shards  int `json:"shards"`
		Entries []struct {
			System string  `json:"system"`
			Dim    int     `json:"dim"`
			Rows   int     `json:"rows"`
			Cols   int     `json:"cols"`
			TSize  float64 `json:"tsize"`
			DSize  int     `json:"dsize"`
		} `json:"entries"`
	}
	if err := json.Unmarshal(buf.Bytes(), &dto); err != nil {
		t.Fatal(err)
	}
	if dto.Version != cacheFormatVersion {
		t.Fatalf("saved version %d, want %d", dto.Version, cacheFormatVersion)
	}
	if dto.Shards != c.Shards() {
		t.Fatalf("saved shards %d, want %d", dto.Shards, c.Shards())
	}
	keys := make([]string, len(dto.Entries))
	for i, e := range dto.Entries {
		in := plan.Instance{Dim: e.Dim, Rows: e.Rows, Cols: e.Cols, TSize: e.TSize, DSize: e.DSize}
		keys[i] = Key(e.System, in)
	}
	return keys
}

// TestPersistenceAcrossShardCounts: the saved order is the global
// recency order however keys hashed onto shards, and a round trip
// through caches of different shard counts preserves it.
func TestPersistenceAcrossShardCounts(t *testing.T) {
	predict := func(_ context.Context, system string, in plan.Instance) (Plan, error) {
		return planFor(in.MaxSide()), nil
	}
	src := NewShardedCtx(256, 8, predict)
	// Touch keys in a deliberate order, including re-promotions that
	// cross shard boundaries.
	dims := []int{100, 200, 300, 400, 500, 600, 700, 800}
	for _, d := range dims {
		src.Get("s", inst(d))
	}
	src.Get("s", inst(300)) // recency: 100,200,400,...,800,300
	src.Get("s", inst(100)) // recency: 200,400,...,800,300,100
	wantOrder := []string{
		Key("s", inst(200).Normalize()), Key("s", inst(400).Normalize()),
		Key("s", inst(500).Normalize()), Key("s", inst(600).Normalize()),
		Key("s", inst(700).Normalize()), Key("s", inst(800).Normalize()),
		Key("s", inst(300).Normalize()), Key("s", inst(100).Normalize()),
	}
	if got := savedOrder(t, src); strings.Join(got, ";") != strings.Join(wantOrder, ";") {
		t.Fatalf("8-shard saved order:\n got %v\nwant %v", got, wantOrder)
	}

	// Round trip through a single-shard cache and back through a
	// 4-shard one: the order must survive both.
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	mid := NewShardedCtx(256, 1, predict)
	if n, err := mid.Load(&buf); err != nil || n != len(dims) {
		t.Fatalf("Load into 1 shard = (%d, %v), want (%d, nil)", n, err, len(dims))
	}
	if got := savedOrder(t, mid); strings.Join(got, ";") != strings.Join(wantOrder, ";") {
		t.Fatalf("1-shard saved order:\n got %v\nwant %v", got, wantOrder)
	}
	var buf2 bytes.Buffer
	if err := mid.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	dst := NewShardedCtx(64, 4, predict)
	if _, err := dst.Load(&buf2); err != nil {
		t.Fatal(err)
	}
	if got := savedOrder(t, dst); strings.Join(got, ";") != strings.Join(wantOrder, ";") {
		t.Fatalf("4-shard saved order:\n got %v\nwant %v", got, wantOrder)
	}

	// And the tail-keeping contract on a shard-count change with
	// eviction: an exact-LRU (single-shard) destination keeps precisely
	// the most recent tail of the 8-shard writer's file.
	var buf3 bytes.Buffer
	if err := dst.Save(&buf3); err != nil {
		t.Fatal(err)
	}
	small := NewShardedCtx(3, 1, predict)
	if _, err := small.Load(&buf3); err != nil {
		t.Fatal(err)
	}
	for _, d := range []int{800, 300, 100} {
		if _, out, _ := small.Get("s", inst(d)); out != Hit {
			t.Errorf("tail entry dim %d: outcome %v, want hit", d, out)
		}
	}
	if _, out, _ := small.Get("s", inst(200)); out == Hit {
		t.Error("oldest entry survived a capacity-3 load")
	}
}

// TestLoadVersion1: version-1 files (from the pre-sharding cache) no
// longer load; nothing in the repository writes them.
func TestLoadVersion1(t *testing.T) {
	doc := `{"version":1,"entries":[
	 {"system":"s","dim":500,"tsize":10,"dsize":1,"cpu_tile":8,"band":-1,"gpu_tile":1,"halo":-1,"rtime_ns":5}]}`
	c := NewShardedCtx(64, 4, nil)
	n, err := c.Load(strings.NewReader(doc))
	if err == nil || n != 0 || c.Len() != 0 {
		t.Fatalf("Load v1 = (%d, %v) with %d resident, want a version error and nothing loaded", n, err, c.Len())
	}
	if !strings.Contains(err.Error(), "version 1") {
		t.Errorf("error %q does not name the rejected version", err)
	}
}
