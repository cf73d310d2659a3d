package core

import (
	"os"
	"sync"
	"testing"

	"repro/internal/plan"
)

func TestObservationLogRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := NewObservationLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	square := plan.Instance{Dim: 700, TSize: 10, DSize: 1}
	rect := plan.Instance{Rows: 600, Cols: 1400, TSize: 2.5, DSize: 5}
	obs := []Observation{
		{Inst: square, Par: plan.Params{CPUTile: 8, Band: 300, GPUTile: 4, Halo: -1}, RTimeNs: 1.5e6},
		{Inst: rect, Par: plan.Params{CPUTile: 4, Band: -1, GPUTile: 1, Halo: -1}, RTimeNs: 2e7},
	}
	// Two separate appends: the header must be written exactly once.
	if err := l.Append("i7-2600K", obs[0]); err != nil {
		t.Fatal(err)
	}
	if err := l.Append("i7-2600K", obs[1]); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(l.Path("i7-2600K"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sr, err := ReadCSV(f)
	if err != nil {
		t.Fatalf("wavetrain's reader rejected the log: %v", err)
	}
	if sr.Sys.Name != "i7-2600K" {
		t.Errorf("system = %s", sr.Sys.Name)
	}
	if len(sr.Instances) != 2 {
		t.Fatalf("instances = %d, want 2", len(sr.Instances))
	}
	for i, want := range obs {
		ir := sr.Instances[i]
		if ir.Inst.CacheKey() != want.Inst.CacheKey() {
			t.Errorf("instance %d = %+v, want %+v", i, ir.Inst, want.Inst)
		}
		if len(ir.Points) != 1 || ir.Points[0].Par != want.Par || ir.Points[0].RTimeNs != want.RTimeNs {
			t.Errorf("points %d = %+v, want par %v rtime %v", i, ir.Points, want.Par, want.RTimeNs)
		}
	}
}

func TestObservationLogValidates(t *testing.T) {
	l, err := NewObservationLog(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	inst := plan.Instance{Dim: 100, TSize: 10, DSize: 1}
	good := plan.Params{CPUTile: 8, Band: -1, GPUTile: 1, Halo: -1}
	cases := []struct {
		name   string
		system string
		obs    Observation
	}{
		{"empty system", "", Observation{Inst: inst, Par: good, RTimeNs: 1}},
		{"path escape", "../evil", Observation{Inst: inst, Par: good, RTimeNs: 1}},
		{"comma breaks CSV", "my,sys", Observation{Inst: inst, Par: good, RTimeNs: 1}},
		{"newline breaks CSV", "my\nsys", Observation{Inst: inst, Par: good, RTimeNs: 1}},
		{"bad params", "i7-2600K", Observation{Inst: inst, Par: plan.Params{CPUTile: 0}, RTimeNs: 1}},
		{"bad instance", "i7-2600K", Observation{Par: good, RTimeNs: 1}},
		{"non-positive runtime", "i7-2600K", Observation{Inst: inst, Par: good, RTimeNs: 0}},
	}
	for _, tc := range cases {
		if err := l.Append(tc.system, tc.obs); err == nil {
			t.Errorf("%s: Append accepted invalid observation", tc.name)
		}
	}
	// Nothing may have been written.
	if _, err := os.Stat(l.Path("i7-2600K")); !os.IsNotExist(err) {
		t.Error("rejected observations still created a log file")
	}
}

func TestObservationLogConcurrentAppends(t *testing.T) {
	l, err := NewObservationLog(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	inst := plan.Instance{Dim: 500, TSize: 10, DSize: 1}
	par := plan.Params{CPUTile: 8, Band: -1, GPUTile: 1, Halo: -1}
	const n = 16
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := l.Append("i3-540", Observation{Inst: inst, Par: par, RTimeNs: float64(i + 1)}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	f, err := os.Open(l.Path("i3-540"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sr, err := ReadCSV(f)
	if err != nil {
		t.Fatalf("concurrent appends corrupted the log: %v", err)
	}
	if got := len(sr.Instances[0].Points); got != n {
		t.Errorf("rows = %d, want %d", got, n)
	}
}

// TestObservationLogReusesAppender: the per-system file handle stays
// open across appends (no open/stat/close per call) and every append is
// flushed — the file is complete and readable while the log stays open.
func TestObservationLogReusesAppender(t *testing.T) {
	l, err := NewObservationLog(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	inst := plan.Instance{Dim: 400, TSize: 10, DSize: 1}
	par := plan.Params{CPUTile: 8, Band: -1, GPUTile: 1, Halo: -1}
	for i := 0; i < 5; i++ {
		if err := l.Append("i7-2600K", Observation{Inst: inst, Par: par, RTimeNs: float64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	// Write-through: read the rows back before Close.
	f, err := os.Open(l.Path("i7-2600K"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sr, err := ReadCSV(f)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(sr.Instances[0].Points); got != 5 {
		t.Errorf("rows before Close = %d, want 5 (appends must flush)", got)
	}
}

// TestObservationLogClose: Close flushes everything and is idempotent;
// a late append (a straggler worker outliving a cut-short shutdown
// drain) still persists through the one-shot fallback instead of
// being dropped.
func TestObservationLogClose(t *testing.T) {
	l, err := NewObservationLog(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	inst := plan.Instance{Dim: 400, TSize: 10, DSize: 1}
	par := plan.Params{CPUTile: 8, Band: -1, GPUTile: 1, Halo: -1}
	if err := l.Append("i7-2600K", Observation{Inst: inst, Par: par, RTimeNs: 1}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append("i3-540", Observation{Inst: inst, Par: par, RTimeNs: 2}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Errorf("second Close: %v, want nil (idempotent)", err)
	}
	if err := l.Append("i7-2600K", Observation{Inst: inst, Par: par, RTimeNs: 3}); err != nil {
		t.Errorf("append after Close = %v, want write-through fallback success", err)
	}
	wantRows := map[string]int{"i7-2600K": 2, "i3-540": 1}
	for _, sys := range []string{"i7-2600K", "i3-540"} {
		f, err := os.Open(l.Path(sys))
		if err != nil {
			t.Fatal(err)
		}
		sr, err := ReadCSV(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s log unreadable after Close: %v", sys, err)
		}
		rows := 0
		for _, ir := range sr.Instances {
			rows += len(ir.Points)
		}
		if rows != wantRows[sys] {
			t.Errorf("%s rows = %d, want %d (late append must persist)", sys, rows, wantRows[sys])
		}
	}
}

// TestObservationLogPerSystemConcurrency: appends to different systems
// from many goroutines (the contended serving pattern) must interleave
// safely, each file ending complete. Run under -race in CI.
func TestObservationLogPerSystemConcurrency(t *testing.T) {
	l, err := NewObservationLog(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	inst := plan.Instance{Dim: 500, TSize: 10, DSize: 1}
	par := plan.Params{CPUTile: 8, Band: -1, GPUTile: 1, Halo: -1}
	systems := []string{"i3-540", "i7-2600K", "i7-3820"}
	const perSys = 25
	var wg sync.WaitGroup
	for _, sys := range systems {
		for i := 0; i < perSys; i++ {
			wg.Add(1)
			go func(sys string, i int) {
				defer wg.Done()
				if err := l.Append(sys, Observation{Inst: inst, Par: par, RTimeNs: float64(i + 1)}); err != nil {
					t.Error(err)
				}
			}(sys, i)
		}
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	for _, sys := range systems {
		f, err := os.Open(l.Path(sys))
		if err != nil {
			t.Fatal(err)
		}
		sr, err := ReadCSV(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: concurrent appends corrupted the log: %v", sys, err)
		}
		if got := len(sr.Instances[0].Points); got != perSys {
			t.Errorf("%s rows = %d, want %d", sys, got, perSys)
		}
	}
}

// TestObservationLogSurvivesRotation: moving a log file aside while the
// log holds its handle open (the retraining fold pattern) must not
// divert later appends to the unlinked inode — the next append
// recreates the file at the path, header included.
func TestObservationLogSurvivesRotation(t *testing.T) {
	l, err := NewObservationLog(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	inst := plan.Instance{Dim: 400, TSize: 10, DSize: 1}
	par := plan.Params{CPUTile: 8, Band: -1, GPUTile: 1, Halo: -1}
	if err := l.Append("i7-2600K", Observation{Inst: inst, Par: par, RTimeNs: 1}); err != nil {
		t.Fatal(err)
	}
	rotated := l.Path("i7-2600K") + ".old"
	if err := os.Rename(l.Path("i7-2600K"), rotated); err != nil {
		t.Fatal(err)
	}
	if err := l.Append("i7-2600K", Observation{Inst: inst, Par: par, RTimeNs: 2}); err != nil {
		t.Fatal(err)
	}
	for path, wantRTime := range map[string]float64{l.Path("i7-2600K"): 2, rotated: 1} {
		f, err := os.Open(path)
		if err != nil {
			t.Fatalf("%s missing after rotation: %v", path, err)
		}
		sr, err := ReadCSV(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s unreadable: %v", path, err)
		}
		pts := sr.Instances[0].Points
		if len(pts) != 1 || pts[0].RTimeNs != wantRTime {
			t.Errorf("%s points = %+v, want one row with rtime %v", path, pts, wantRTime)
		}
	}
}
