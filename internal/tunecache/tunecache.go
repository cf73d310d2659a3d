// Package tunecache provides the concurrency-safe plan cache behind the
// tuning service: the "train once, predict per instance" deployment story
// of the paper, made cheap enough to serve at request rates. Tuned
// decisions are cached by (system, instance shape) with LRU bounding, so
// repeated requests for the same workload cost a map lookup instead of a
// model evaluation, and concurrent misses on one key are deduplicated —
// a single predict runs while every other caller blocks on its result
// (the singleflight pattern). A plan is a pure function of (model,
// instance), so the cache lives only in process memory: a restarted
// daemon, like one that just promoted a model, refills it on demand from
// the tuner it serves, and no cached plan can outlive its model.
//
// The cache is sharded: keys hash onto independently locked shards
// (default GOMAXPROCS, see NewShardedCtx), each with its own LRU list,
// entry map and in-flight singleflight table, so concurrent lookups on
// different keys never contend on one mutex, and a hit touches no
// cache-wide state. Eviction is per shard (each shard holds its slice of
// the capacity), so the LRU bound is exact per shard and approximate
// globally; a cache small enough that sharding could distort eviction
// collapses to a single shard and behaves exactly like a classic LRU.
package tunecache

import (
	"container/list"
	"context"
	"fmt"
	"hash/maphash"
	"runtime"
	"sync"

	"repro/internal/plan"
)

// DefaultCapacity bounds the cache when the caller does not.
const DefaultCapacity = 512

// minShardCapacity is the smallest per-shard LRU bound worth having:
// below it, sharding would distort eviction more than it relieves
// contention, so the shard count is clamped to capacity/minShardCapacity
// (and a tiny cache runs unsharded with exact LRU semantics).
const minShardCapacity = 8

// Plan is a cached tuning decision: the predictor's output plus the
// modeled runtimes that contextualize it.
type Plan struct {
	// Serial is true when the parallelism gate chose the sequential
	// baseline.
	Serial bool
	// Par is the tuned parameter setting (meaningful when !Serial, and
	// also carries the fallback CPU tiling when Serial).
	Par plan.Params
	// RTimeNs is the modeled runtime of the decision in nanoseconds.
	RTimeNs float64
	// SerialNs is the modeled optimized sequential baseline in
	// nanoseconds, for speedup reporting.
	SerialNs float64
}

// PredictCtxFunc computes a tuned plan on a cache miss — typically one
// core.Predictor evaluation. It is called exactly once per missing key
// regardless of how many callers are waiting. ctx is the context
// of the GetCtx call that leads the miss's singleflight (coalesced
// waiters share the leader's evaluation, so only the leader's context —
// and therefore its trace span — reaches the predict), or
// context.Background() for plain Get callers. The context is for
// telemetry propagation; the predict is not expected to abort on
// cancellation, since its result is shared with unrelated waiters.
type PredictCtxFunc func(ctx context.Context, system string, inst plan.Instance) (Plan, error)

// Outcome classifies how a Get was served.
type Outcome int

const (
	// Hit: the plan was resident.
	Hit Outcome = iota
	// Miss: this caller ran the predict.
	Miss
	// Coalesced: another caller was already predicting this key; this
	// caller blocked on that in-flight result.
	Coalesced
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case Miss:
		return "miss"
	case Coalesced:
		return "coalesced"
	}
	return fmt.Sprintf("outcome(%d)", int(o))
}

// Stats is a snapshot of the cache counters.
type Stats struct {
	// Hits counts Gets served from a resident entry.
	Hits uint64 `json:"hits"`
	// Misses counts Gets that invoked the predict function — the number
	// of underlying tuner evaluations.
	Misses uint64 `json:"misses"`
	// Coalesced counts Gets that joined another caller's in-flight
	// predict instead of starting their own.
	Coalesced uint64 `json:"coalesced"`
	// Evictions counts entries dropped by the LRU bound.
	Evictions uint64 `json:"evictions"`
	// Invalidations counts entries dropped by targeted invalidation
	// (InvalidateSystem) — model promotions, not capacity pressure.
	Invalidations uint64 `json:"invalidations"`
	// Errors counts predicts that failed (failures are not cached).
	Errors uint64 `json:"errors"`
	// Size and Capacity describe the resident set.
	Size     int `json:"size"`
	Capacity int `json:"capacity"`
}

// Lookups returns the total number of Gets observed.
func (s Stats) Lookups() uint64 { return s.Hits + s.Misses + s.Coalesced }

// add accumulates another counter block (shard aggregation).
func (s *Stats) add(o Stats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Coalesced += o.Coalesced
	s.Evictions += o.Evictions
	s.Invalidations += o.Invalidations
	s.Errors += o.Errors
	s.Size += o.Size
}

// entry is one cache slot. While the predict is in flight, done is open
// and elem is nil; once done closes, val/err are immutable and, on
// success, elem links the entry into the shard's LRU list. dropped
// (guarded by the shard mutex) marks an in-flight entry invalidated
// mid-predict: the flight still delivers its value to waiters, but must
// not insert it into the LRU.
type entry struct {
	key     string
	sys     string
	done    chan struct{}
	val     Plan
	err     error
	elem    *list.Element
	dropped bool
}

// shard is one independently locked slice of the cache: its own entry
// map, LRU list, in-flight table (entries with a nil elem) and counters.
type shard struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*entry
	lru     *list.List // front = most recently used; values are *entry
	stats   Stats
	bySys   map[string]*Stats
}

// Cache is a concurrency-safe sharded LRU plan cache with singleflight
// miss deduplication. The zero value is not usable; construct with
// NewShardedCtx.
type Cache struct {
	cap     int
	predict PredictCtxFunc
	shards  []*shard
	seed    maphash.Seed
}

// NewShardedCtx creates a cache bounded to capacity resident plans
// (DefaultCapacity when capacity <= 0) split across the given number of
// independently locked shards, filling misses through predict (see
// PredictCtxFunc). shards <= 0 selects GOMAXPROCS. The count is clamped
// so every shard keeps a useful LRU slice (at least minShardCapacity
// entries), which means a small cache runs unsharded and keeps exact
// global LRU semantics.
func NewShardedCtx(capacity, shards int, predict PredictCtxFunc) *Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	if max := capacity / minShardCapacity; shards > max {
		shards = max
	}
	if shards < 1 {
		shards = 1
	}
	c := &Cache{
		cap:     capacity,
		predict: predict,
		shards:  make([]*shard, shards),
		seed:    maphash.MakeSeed(),
	}
	// Distribute the capacity so the shard bounds sum exactly to the
	// requested total.
	base, extra := capacity/shards, capacity%shards
	for i := range c.shards {
		sc := base
		if i < extra {
			sc++
		}
		c.shards[i] = &shard{
			cap:     sc,
			entries: make(map[string]*entry),
			lru:     list.New(),
			bySys:   make(map[string]*Stats),
		}
	}
	return c
}

// shardFor hashes a key onto its shard.
func (c *Cache) shardFor(key string) *shard {
	if len(c.shards) == 1 {
		return c.shards[0]
	}
	return c.shards[maphash.String(c.seed, key)%uint64(len(c.shards))]
}

// ShardIndex reports which shard (an index into ShardStats) serves the
// key for (system, inst), so request traces can name the shard a lookup
// landed on.
func (c *Cache) ShardIndex(system string, inst plan.Instance) int {
	if len(c.shards) == 1 {
		return 0
	}
	k := Key(system, inst.Normalize())
	return int(maphash.String(c.seed, k) % uint64(len(c.shards)))
}

// maxTrackedSystems bounds each shard's per-system counter map: unlike
// the entries, counters survive eviction, so a caller feeding unbounded
// distinct system names must not leak memory. Beyond the bound, new
// names aggregate under OverflowSystem.
const maxTrackedSystems = 1024

// OverflowSystem is the SystemStats key aggregating counters of systems
// beyond the tracking bound.
const OverflowSystem = "(other)"

// sysStatsLocked returns (creating if needed) the named system's counter
// block. Caller holds s.mu.
func (s *shard) sysStatsLocked(system string) *Stats {
	if st, ok := s.bySys[system]; ok {
		return st
	}
	if len(s.bySys) >= maxTrackedSystems {
		if st, ok := s.bySys[OverflowSystem]; ok {
			return st
		}
		system = OverflowSystem
	}
	st := &Stats{}
	s.bySys[system] = st
	return st
}

// Key returns the cache key for a system/instance pair: the system name
// joined with the instance's stable canonical encoding.
func Key(system string, inst plan.Instance) string {
	return system + "|" + inst.CacheKey()
}

// Get returns the tuned plan for inst on the named system, predicting it
// on a miss. The returned Outcome reports whether the plan was resident
// (Hit), computed by this call (Miss), or shared from a concurrent
// caller's in-flight computation (Coalesced). Predict errors are returned
// to every waiting caller and are not cached, so a later Get retries.
func (c *Cache) Get(system string, inst plan.Instance) (Plan, Outcome, error) {
	return c.GetCtx(context.Background(), system, inst)
}

// GetCtx is Get with a caller context that reaches the predict when
// this call leads the miss's singleflight, letting a request's trace
// span chain through the model evaluation (see PredictCtxFunc).
func (c *Cache) GetCtx(ctx context.Context, system string, inst plan.Instance) (Plan, Outcome, error) {
	if err := inst.Validate(); err != nil {
		return Plan{}, Miss, err
	}
	if system == "" {
		return Plan{}, Miss, fmt.Errorf("tunecache: empty system name")
	}
	inst = inst.Normalize()
	k := Key(system, inst)
	s := c.shardFor(k)

	s.mu.Lock()
	if e, ok := s.entries[k]; ok {
		if e.elem != nil {
			// Resident.
			s.lru.MoveToFront(e.elem)
			s.stats.Hits++
			s.sysStatsLocked(system).Hits++
			val := e.val
			s.mu.Unlock()
			return val, Hit, nil
		}
		// In flight: join it.
		s.stats.Coalesced++
		s.sysStatsLocked(system).Coalesced++
		s.mu.Unlock()
		<-e.done
		return e.val, Coalesced, e.err
	}

	// Miss: this caller leads the flight.
	e := &entry{key: k, sys: system, done: make(chan struct{})}
	s.entries[k] = e
	s.stats.Misses++
	s.sysStatsLocked(system).Misses++
	s.mu.Unlock()

	// A panicking predict must still settle the flight, or every waiter
	// (and every future Get for the key) would block forever on done;
	// convert the panic to an error delivered to all of them.
	val, err := func() (v Plan, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("tunecache: predict panicked: %v", r)
			}
		}()
		return c.predict(ctx, system, inst)
	}()

	s.mu.Lock()
	e.val, e.err = val, err
	if err != nil {
		s.stats.Errors++
		s.sysStatsLocked(system).Errors++
		// Guard the delete: if this flight was invalidated mid-predict,
		// the key may already belong to a newer entry that must survive.
		if cur, ok := s.entries[k]; ok && cur == e {
			delete(s.entries, k)
		}
	} else if !e.dropped {
		e.elem = s.lru.PushFront(e)
		s.evictLocked()
	}
	close(e.done)
	s.mu.Unlock()
	return val, Miss, err
}

// InvalidateSystem removes every cache entry for the named system and
// returns how many it dropped — the targeted invalidation behind model
// promotion: when a new tuner generation starts serving a system, its
// cached decisions are stale, but flushing the whole cache would punish
// every other system's hit rate for one system's promotion, so only the
// affected system's entries go. In-flight predicts for the system are
// marked dropped: their waiters still receive the computed value (their
// requests raced the promotion and get the old model's answer, as any
// pre-promotion request does) but the result is not cached, so the next
// lookup predicts against the new model.
func (c *Cache) InvalidateSystem(system string) int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		for k, e := range s.entries {
			if e.sys != system {
				continue
			}
			if e.elem != nil {
				s.lru.Remove(e.elem)
			} else {
				e.dropped = true
			}
			delete(s.entries, k)
			n++
			s.stats.Invalidations++
			s.sysStatsLocked(system).Invalidations++
		}
		s.mu.Unlock()
	}
	return n
}

// evictLocked drops least-recently-used resident entries until the
// shard's bound holds. Caller holds s.mu.
func (s *shard) evictLocked() {
	for s.lru.Len() > s.cap {
		back := s.lru.Back()
		e := back.Value.(*entry)
		s.lru.Remove(back)
		delete(s.entries, e.key)
		s.stats.Evictions++
		s.sysStatsLocked(e.sys).Evictions++
	}
}

// Stats returns a snapshot of the counters, aggregated across shards.
func (c *Cache) Stats() Stats {
	var out Stats
	for _, s := range c.shards {
		s.mu.Lock()
		st := s.stats
		st.Size = s.lru.Len()
		s.mu.Unlock()
		out.add(st)
	}
	out.Capacity = c.cap
	return out
}

// ShardStats returns a per-shard snapshot of the counters, in shard
// order. This is the telemetry surface behind the per-shard series on
// /metrics: contention or skew shows up as one shard's hit/miss mix
// diverging from its peers'. Capacity is left zero — the LRU bound is
// shared across shards, not partitioned.
func (c *Cache) ShardStats() []Stats {
	out := make([]Stats, len(c.shards))
	for i, s := range c.shards {
		s.mu.Lock()
		st := s.stats
		st.Size = s.lru.Len()
		s.mu.Unlock()
		out[i] = st
	}
	return out
}

// shardLens returns the resident-entry count of every shard (for the
// distribution sanity tests).
func (c *Cache) shardLens() []int {
	out := make([]int, len(c.shards))
	for i, s := range c.shards {
		s.mu.Lock()
		out[i] = s.lru.Len()
		s.mu.Unlock()
	}
	return out
}

// SystemStats returns per-system snapshots of the counters, aggregated
// across shards: how each served platform's traffic is hitting the
// cache. Size counts that system's resident plans; Capacity is the
// shared total bound. A resident system whose counters landed in
// OverflowSystem appears with zero lookup counters but a non-zero Size.
func (c *Cache) SystemStats() map[string]Stats {
	out := make(map[string]Stats)
	for _, s := range c.shards {
		s.mu.Lock()
		sizes := make(map[string]int)
		for el := s.lru.Front(); el != nil; el = el.Next() {
			sizes[el.Value.(*entry).sys]++
		}
		for sys, st := range s.bySys {
			agg := out[sys]
			agg.add(Stats{
				Hits: st.Hits, Misses: st.Misses, Coalesced: st.Coalesced,
				Evictions: st.Evictions, Invalidations: st.Invalidations,
				Errors: st.Errors, Size: sizes[sys],
			})
			out[sys] = agg
			delete(sizes, sys)
		}
		for sys, n := range sizes {
			agg := out[sys]
			agg.Size += n
			out[sys] = agg
		}
		s.mu.Unlock()
	}
	for sys, st := range out {
		st.Capacity = c.cap
		out[sys] = st
	}
	return out
}
