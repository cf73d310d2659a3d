package tunecache

import (
	"bytes"
	"context"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/plan"
)

// TestPersistenceRoundTrip saves a populated cache and loads it into a
// fresh one: every plan (square and rectangular) must come back resident,
// with no predict calls needed to serve them.
func TestPersistenceRoundTrip(t *testing.T) {
	var calls atomic.Int64
	predict := func(_ context.Context, system string, in plan.Instance) (Plan, error) {
		calls.Add(1)
		return Plan{Serial: in.MaxSide() < 300,
			Par:     plan.Params{CPUTile: 4, Band: in.MaxSide() / 2, GPUTile: 8, Halo: 3},
			RTimeNs: 1.5e9, SerialNs: 12e9}, nil
	}
	src := NewShardedCtx(8, 0, predict)
	insts := []plan.Instance{
		{Dim: 500, TSize: 100, DSize: 1},
		{Dim: 200, TSize: 0.5, DSize: 0},
		{Rows: 600, Cols: 1400, TSize: 750, DSize: 4},
	}
	want := make([]Plan, len(insts))
	for i, in := range insts {
		p, _, err := src.Get("i7-2600K", in)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = p
	}

	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"rows": 600`) {
		t.Errorf("rect shape not persisted:\n%s", buf.String())
	}

	dst := NewShardedCtx(8, 0, predict)
	n, err := dst.Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if n != len(insts) {
		t.Fatalf("loaded %d entries, want %d", n, len(insts))
	}
	before := calls.Load()
	for i, in := range insts {
		p, out, err := dst.Get("i7-2600K", in)
		if err != nil || out != Hit {
			t.Fatalf("instance %d: outcome %v (%v), want hit", i, out, err)
		}
		if p != want[i] {
			t.Errorf("instance %d: plan %+v, want %+v", i, p, want[i])
		}
	}
	if calls.Load() != before {
		t.Errorf("loading must not require predicts (ran %d)", calls.Load()-before)
	}
}

// TestPersistenceKeepsRecencyOrder: loading a 3-entry file into a
// 2-entry cache must keep the file's most recently used tail.
func TestPersistenceKeepsRecencyOrder(t *testing.T) {
	predict := func(_ context.Context, system string, in plan.Instance) (Plan, error) {
		return Plan{Par: plan.Params{CPUTile: 1, Band: -1, GPUTile: 1, Halo: -1}}, nil
	}
	src := NewShardedCtx(8, 0, predict)
	a := plan.Instance{Dim: 100, TSize: 1, DSize: 0}
	b := plan.Instance{Dim: 200, TSize: 1, DSize: 0}
	d := plan.Instance{Dim: 300, TSize: 1, DSize: 0}
	src.Get("s", a)
	src.Get("s", b)
	src.Get("s", d)
	src.Get("s", a) // recency now: a, d, b

	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	dst := NewShardedCtx(2, 0, predict)
	if _, err := dst.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if _, out, _ := dst.Get("s", a); out != Hit {
		t.Errorf("most recent entry a missing: %v", out)
	}
	if _, out, _ := dst.Get("s", d); out != Hit {
		t.Errorf("second most recent entry d missing: %v", out)
	}
	if st := dst.Stats(); st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1 (entry b)", st.Evictions)
	}
}

func TestLoadRejectsBadInput(t *testing.T) {
	c := NewShardedCtx(4, 0, nil)
	if _, err := c.Load(strings.NewReader("{")); err == nil {
		t.Error("truncated JSON must fail")
	}
	if _, err := c.Load(strings.NewReader(`{"version":99,"entries":[]}`)); err == nil {
		t.Error("wrong version must fail")
	}
	if _, err := c.Load(strings.NewReader(
		`{"version":2,"entries":[{"system":"s","dim":0,"tsize":1,"dsize":0}]}`)); err == nil {
		t.Error("invalid instance must fail")
	}
	// Params the library itself rejects (cpu_tile 0) must not load.
	if _, err := c.Load(strings.NewReader(
		`{"version":2,"entries":[{"system":"s","dim":500,"tsize":1,"dsize":0,"cpu_tile":0,"band":-1,"gpu_tile":1,"halo":-1}]}`)); err == nil {
		t.Error("invalid params must fail")
	}
	if st := c.Stats(); st.Size != 0 {
		t.Errorf("failed loads must not insert: %+v", st)
	}
}

// TestLoadIsAtomic: a file with valid entries followed by a bad one must
// load nothing, so the warm-or-cold decision never lands in between.
func TestLoadIsAtomic(t *testing.T) {
	c := NewShardedCtx(4, 0, nil)
	doc := `{"version":2,"entries":[
	 {"system":"s","dim":500,"tsize":10,"dsize":1,"cpu_tile":8,"band":-1,"gpu_tile":1,"halo":-1,"rtime_ns":1},
	 {"system":"s","dim":700,"tsize":10,"dsize":1,"cpu_tile":0,"band":-1,"gpu_tile":1,"halo":-1,"rtime_ns":1}]}`
	n, err := c.Load(strings.NewReader(doc))
	if err == nil {
		t.Fatal("bad second entry must fail the load")
	}
	if n != 0 || c.Len() != 0 {
		t.Errorf("partial load: n=%d len=%d, want 0/0", n, c.Len())
	}
}

func TestSaveFileLoadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plans.json")
	predict := func(_ context.Context, system string, in plan.Instance) (Plan, error) {
		return Plan{Par: plan.Params{CPUTile: 8, Band: -1, GPUTile: 1, Halo: -1}, RTimeNs: 7}, nil
	}
	c := NewShardedCtx(4, 0, predict)
	c.Get("s", plan.Instance{Dim: 500, TSize: 10, DSize: 1})
	if err := c.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	c2 := NewShardedCtx(4, 0, predict)
	if n, err := c2.LoadFile(path); err != nil || n != 1 {
		t.Fatalf("LoadFile = (%d, %v), want (1, nil)", n, err)
	}
	if _, out, _ := c2.Get("s", plan.Instance{Dim: 500, TSize: 10, DSize: 1}); out != Hit {
		t.Errorf("outcome %v, want hit", out)
	}
}
