package tunecache

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/atomicfile"
	"repro/internal/plan"
)

// Cache persistence follows the style of the tuner files written by
// core.SavePredictor: a versioned JSON document with explicit snake_case
// fields, small enough to inspect by hand. Instance shapes keep both
// square and rectangular spellings, mirroring the search-CSV dim column
// (Instance.ShapeString).
//
// The current format is version 2, written by the sharded cache:
// entries in positional order, least recently used first, where the
// order is the *global* recency merge across shards (via the cache's
// logical clock), plus the writer's shard count as an informational
// "shards" field. A file round-trips across any shard-count change —
// the order does not depend on how keys hashed onto shards.
const cacheFormatVersion = 2

// entryDTO is the on-disk form of one cached plan.
type entryDTO struct {
	System string `json:"system"`
	// Dim is set for square instances; Rows/Cols for rectangular ones
	// (the same convention as the search CSV's dim column).
	Dim      int     `json:"dim,omitempty"`
	Rows     int     `json:"rows,omitempty"`
	Cols     int     `json:"cols,omitempty"`
	TSize    float64 `json:"tsize"`
	DSize    int     `json:"dsize"`
	Serial   bool    `json:"serial"`
	CPUTile  int     `json:"cpu_tile"`
	Band     int     `json:"band"`
	GPUTile  int     `json:"gpu_tile"`
	Halo     int     `json:"halo"`
	RTimeNs  float64 `json:"rtime_ns"`
	SerialNs float64 `json:"serial_ns"`
}

// cacheDTO is the on-disk form of the whole cache.
type cacheDTO struct {
	Version int `json:"version"`
	// Shards records the writer's shard count (informational — a file
	// loads into a cache of any shard count).
	Shards  int        `json:"shards,omitempty"`
	Entries []entryDTO `json:"entries"`
}

// Save writes every resident plan to w as versioned JSON, least recently
// used first in the global (cross-shard) recency order, so that a Load
// into a fresh cache reproduces the recency (the last entry loaded
// becomes the most recent) regardless of either cache's shard count.
func (c *Cache) Save(w io.Writer) error {
	type stamped struct {
		dto   entryDTO
		stamp uint64
	}
	var all []stamped
	for _, s := range c.shards {
		s.mu.Lock()
		for el := s.lru.Front(); el != nil; el = el.Next() {
			e := el.Value.(*entry)
			d := entryDTO{
				System: e.sys, TSize: e.inst.TSize, DSize: e.inst.DSize,
				Serial: e.val.Serial, CPUTile: e.val.Par.CPUTile,
				Band: e.val.Par.Band, GPUTile: e.val.Par.GPUTile, Halo: e.val.Par.Halo,
				RTimeNs: e.val.RTimeNs, SerialNs: e.val.SerialNs,
			}
			if rows, cols := e.inst.Shape(); rows == cols {
				d.Dim = rows
			} else {
				d.Rows, d.Cols = rows, cols
			}
			all = append(all, stamped{dto: d, stamp: e.stamp})
		}
		s.mu.Unlock()
	}
	// Global clock stamps are unique and monotone, so ascending order is
	// the merged least-to-most-recent order across every shard.
	sort.Slice(all, func(i, j int) bool { return all[i].stamp < all[j].stamp })
	dto := cacheDTO{Version: cacheFormatVersion, Shards: len(c.shards)}
	dto.Entries = make([]entryDTO, len(all))
	for i, s := range all {
		dto.Entries[i] = s.dto
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(dto); err != nil {
		return fmt.Errorf("tunecache: encoding cache: %w", err)
	}
	return nil
}

// Load reads a document written by Save and warms the cache with its
// entries, in order. It
// returns the number of plans loaded. Loading is all-or-nothing: every
// entry is validated — the instance, and the params via plan.Build, so a
// corrupt file cannot inject settings the library itself rejects —
// before any is inserted. Entries beyond the capacity evict in the usual
// per-shard LRU order, so loading a large file into a small cache keeps
// the file's most recent tail (exactly for an unsharded cache,
// approximately across shards).
func (c *Cache) Load(r io.Reader) (int, error) {
	var dto cacheDTO
	if err := json.NewDecoder(r).Decode(&dto); err != nil {
		return 0, fmt.Errorf("tunecache: decoding cache: %w", err)
	}
	if dto.Version != cacheFormatVersion {
		return 0, fmt.Errorf("tunecache: cache format version %d, want %d",
			dto.Version, cacheFormatVersion)
	}
	type staged struct {
		sys  string
		inst plan.Instance
		p    Plan
	}
	entries := make([]staged, 0, len(dto.Entries))
	for i, d := range dto.Entries {
		inst := plan.Instance{Dim: d.Dim, Rows: d.Rows, Cols: d.Cols, TSize: d.TSize, DSize: d.DSize}
		p := Plan{
			Serial:   d.Serial,
			Par:      plan.Params{CPUTile: d.CPUTile, Band: d.Band, GPUTile: d.GPUTile, Halo: d.Halo},
			RTimeNs:  d.RTimeNs,
			SerialNs: d.SerialNs,
		}
		if d.System == "" {
			return 0, fmt.Errorf("tunecache: entry %d: empty system name", i)
		}
		if err := inst.Validate(); err != nil {
			return 0, fmt.Errorf("tunecache: entry %d: %w", i, err)
		}
		if err := plan.Check(inst, p.Par); err != nil {
			return 0, fmt.Errorf("tunecache: entry %d: %w", i, err)
		}
		entries = append(entries, staged{sys: d.System, inst: inst, p: p})
	}
	for _, e := range entries {
		if err := c.Put(e.sys, e.inst, e.p); err != nil {
			// Unreachable: every entry was validated above.
			return 0, err
		}
	}
	return len(entries), nil
}

// SaveFile writes the cache to path atomically (unique synced temp file +
// rename + directory sync), so a crash mid-write can never leave a
// truncated file behind for the next start to choke on, and concurrent
// savers cannot corrupt each other's temp file — last rename wins whole.
func (c *Cache) SaveFile(path string) error {
	if err := atomicfile.Write(path, 0o600, c.Save); err != nil {
		return fmt.Errorf("tunecache: %w", err)
	}
	return nil
}

// LoadFile warms the cache from a file written by SaveFile.
func (c *Cache) LoadFile(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("tunecache: %w", err)
	}
	defer f.Close()
	return c.Load(f)
}
