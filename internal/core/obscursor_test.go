package core

import (
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/plan"
)

func obsFor(dim int, rt float64) Observation {
	return Observation{
		Inst:    plan.Instance{Dim: dim, TSize: 200, DSize: 1},
		Par:     plan.Params{CPUTile: 8, Band: -1, GPUTile: 1, Halo: -1},
		RTimeNs: rt,
		App:     "test",
	}
}

func newCursorLog(t *testing.T) (*ObservationLog, *LogCursor, string) {
	t.Helper()
	dir := t.TempDir()
	log, err := NewObservationLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { log.Close() })
	path := log.Path("i7-2600K")
	return log, NewLogCursor(path), path
}

func TestLogCursorCountsOnlyNewRows(t *testing.T) {
	log, cur, _ := newCursorLog(t)

	s, err := cur.Scan()
	if err != nil || s.NewRows != 0 || s.Rotated {
		t.Fatalf("empty scan = %+v, %v", s, err)
	}

	if err := log.Append("i7-2600K", obsFor(500, 1e6), obsFor(600, 2e6)); err != nil {
		t.Fatal(err)
	}
	s, err = cur.Scan()
	if err != nil || s.NewRows != 2 {
		t.Fatalf("scan after 2 appends = %+v, %v", s, err)
	}
	// Scan is read-only: without a commit the rows count again.
	s2, err := cur.Scan()
	if err != nil || s2.NewRows != 2 {
		t.Fatalf("rescan without commit = %+v, %v", s2, err)
	}
	if err := cur.Commit(s); err != nil {
		t.Fatal(err)
	}
	s, err = cur.Scan()
	if err != nil || s.NewRows != 0 {
		t.Fatalf("scan after commit = %+v, %v", s, err)
	}

	if err := log.Append("i7-2600K", obsFor(700, 3e6)); err != nil {
		t.Fatal(err)
	}
	s, err = cur.Scan()
	if err != nil || s.NewRows != 1 || s.Rotated {
		t.Fatalf("scan after 1 more append = %+v, %v", s, err)
	}
}

func TestLogCursorCrashRecovery(t *testing.T) {
	log, cur, path := newCursorLog(t)
	if err := log.Append("i7-2600K", obsFor(500, 1e6), obsFor(600, 2e6), obsFor(700, 3e6)); err != nil {
		t.Fatal(err)
	}
	s, err := cur.Scan()
	if err != nil || s.NewRows != 3 {
		t.Fatalf("scan = %+v, %v", s, err)
	}
	if err := cur.Commit(s); err != nil {
		t.Fatal(err)
	}

	// A fresh cursor (new process) must pick up the persisted position:
	// the consumed rows are not new, a later append is.
	cur2 := NewLogCursor(path)
	s, err = cur2.Scan()
	if err != nil || s.NewRows != 0 || s.Rotated {
		t.Fatalf("restart scan = %+v, %v", s, err)
	}
	if err := log.Append("i7-2600K", obsFor(800, 4e6)); err != nil {
		t.Fatal(err)
	}
	s, err = cur2.Scan()
	if err != nil || s.NewRows != 1 {
		t.Fatalf("restart scan after append = %+v, %v", s, err)
	}

	// A corrupt checkpoint (torn write) degrades to re-counting from the
	// top — rows are re-counted, never lost.
	if err := os.WriteFile(checkpointPath(path), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	cur3 := NewLogCursor(path)
	s, err = cur3.Scan()
	if err != nil || s.NewRows != 4 {
		t.Fatalf("corrupt-checkpoint scan = %+v, %v", s, err)
	}

	// So does a probe longer than any scan records: the probe buffer
	// holds at most logProbeCap bytes.
	if err := os.WriteFile(checkpointPath(path), []byte(`{"offset":1,"probe_len":5000}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cur4 := NewLogCursor(path)
	s, err = cur4.Scan()
	if err != nil || s.NewRows != 4 {
		t.Fatalf("oversized-probe scan = %+v, %v", s, err)
	}
}

func TestLogCursorRotation(t *testing.T) {
	log, cur, path := newCursorLog(t)
	if err := log.Append("i7-2600K", obsFor(500, 1e6), obsFor(600, 2e6)); err != nil {
		t.Fatal(err)
	}
	s, err := cur.Scan()
	if err != nil || s.NewRows != 2 {
		t.Fatalf("scan = %+v, %v", s, err)
	}
	if err := cur.Commit(s); err != nil {
		t.Fatal(err)
	}

	// Rotate the log aside (the wavetrain -from fold) and append fresh
	// rows; the appender recreates the file with a new header.
	if err := os.Rename(path, path+".old"); err != nil {
		t.Fatal(err)
	}
	if err := log.Append("i7-2600K", obsFor(900, 5e6)); err != nil {
		t.Fatal(err)
	}
	s, err = cur.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if !s.Rotated || s.NewRows != 1 {
		t.Fatalf("post-rotation scan = %+v, want Rotated with exactly the 1 fresh row", s)
	}
	if err := cur.Commit(s); err != nil {
		t.Fatal(err)
	}
	s, err = cur.Scan()
	if err != nil || s.NewRows != 0 || s.Rotated {
		t.Fatalf("settled post-rotation scan = %+v, %v", s, err)
	}

	// Rotate away entirely with nothing recreated: scans see zero rows.
	if err := os.Rename(path, path+".old2"); err != nil {
		t.Fatal(err)
	}
	s, err = cur.Scan()
	if err != nil || s.NewRows != 0 || !s.Rotated {
		t.Fatalf("missing-file scan = %+v, %v", s, err)
	}
}

func TestLogCursorTornTailRow(t *testing.T) {
	log, cur, path := newCursorLog(t)
	if err := log.Append("i7-2600K", obsFor(500, 1e6)); err != nil {
		t.Fatal(err)
	}
	// Simulate a row mid-append: a fragment with no trailing newline.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("i7-2600K,600,200,1,8,"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s, err := cur.Scan()
	if err != nil || s.NewRows != 1 || s.BadRows != 0 {
		t.Fatalf("torn-tail scan = %+v, %v (fragment must stay unconsumed)", s, err)
	}
	if err := cur.Commit(s); err != nil {
		t.Fatal(err)
	}

	// Complete the torn row; only then does it count, and exactly once.
	f, err = os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("-1,1,-1,2e6,false,test\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	s, err = cur.Scan()
	if err != nil || s.NewRows != 1 || s.BadRows != 0 || s.Rotated {
		t.Fatalf("completed-tail scan = %+v, %v", s, err)
	}
}

func TestLogCursorCountsBadRows(t *testing.T) {
	log, cur, path := newCursorLog(t)
	if err := log.Append("i7-2600K", obsFor(500, 1e6)); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("garbage row that is not a csv\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	s, err := cur.Scan()
	if err != nil || s.NewRows != 1 || s.BadRows != 1 {
		t.Fatalf("scan = %+v, %v", s, err)
	}
}

func TestReadObservationLogLenient(t *testing.T) {
	csv := strings.Join([]string{
		searchCSVHeader,
		"i7-2600K,500,200,1,8,-1,1,-1,1e+06,false,test",
		"garbage row",
		"i3-540,500,200,1,8,-1,1,-1,1e+06,false,test", // wrong system
		"i7-2600K,600,200,1,8,-1,1,-1,-5,false,test",  // non-positive runtime
		"i7-2600K,600,200,1,8,-1,1,-1,2e+06,false,test",
		"i7-2600K,600,200,1,-8,-1,1,-1,2e+06,false,test", // no valid plan
	}, "\n")
	sr, bad, err := ReadObservationLog(strings.NewReader(csv), "i7-2600K")
	if err != nil {
		t.Fatal(err)
	}
	if bad != 4 {
		t.Fatalf("bad = %d, want 4", bad)
	}
	if len(sr.Instances) != 2 {
		t.Fatalf("instances = %d, want 2", len(sr.Instances))
	}
	total := 0
	for _, ir := range sr.Instances {
		total += len(ir.Points)
	}
	if total != 2 {
		t.Fatalf("points = %d, want 2", total)
	}

	if _, _, err := ReadObservationLog(strings.NewReader("garbage header\n"), "i7-2600K"); err == nil {
		t.Fatal("wrong header must error")
	}
	if _, _, err := ReadObservationLog(strings.NewReader(searchCSVHeader+"\n"), "i7-2600K"); err == nil {
		t.Fatal("no usable rows must error")
	}
	if _, _, err := ReadObservationLog(strings.NewReader(csv), "no-such-system"); err == nil {
		t.Fatal("unknown system must error")
	}
}

func TestSplitHoldout(t *testing.T) {
	sr := &SearchResult{}
	mk := func(dim int, n int) InstanceResult {
		ir := InstanceResult{Inst: plan.Instance{Dim: dim, TSize: 200, DSize: 1}, SerialNs: 1e9}
		for i := 0; i < n; i++ {
			ir.Points = append(ir.Points, Point{Inst: ir.Inst, RTimeNs: float64(i + 1)})
		}
		return ir
	}
	sr.Instances = []InstanceResult{mk(500, 4), mk(600, 4), mk(700, 1)}

	train, held := SplitHoldout(sr, 0.5, 42)
	if len(held) == 0 {
		t.Fatal("holdout empty")
	}
	trainPts := 0
	for _, ir := range train.Instances {
		if len(ir.Points) == 0 {
			t.Fatalf("instance %v lost all training points", ir.Inst)
		}
		trainPts += len(ir.Points)
	}
	if trainPts+len(held) != 9 {
		t.Fatalf("points leaked: %d train + %d held != 9", trainPts, len(held))
	}
	if len(train.Space.Dims) != 3 || len(train.Space.TSizes) != 1 {
		t.Fatalf("space not rebuilt: %+v", train.Space)
	}

	// Deterministic under the same seed.
	train2, held2 := SplitHoldout(sr, 0.5, 42)
	if len(held2) != len(held) || len(train2.Instances) != len(train.Instances) {
		t.Fatal("split not deterministic")
	}
	for i := range held {
		if held[i] != held2[i] {
			t.Fatal("split not deterministic")
		}
	}

	// frac 0 still repairs to a non-empty holdout when points allow.
	_, heldZero := SplitHoldout(sr, 0, 1)
	if len(heldZero) != 1 {
		t.Fatalf("frac-0 holdout = %d points, want the 1 repaired point", len(heldZero))
	}

	// A young observation log: one point per instance. Whole instances
	// move to the holdout so the comparison still has samples.
	solo := &SearchResult{Instances: []InstanceResult{mk(500, 1), mk(600, 1), mk(700, 1), mk(800, 1)}}
	trainSolo, heldSolo := SplitHoldout(solo, 0.5, 7)
	if len(heldSolo) != 2 || len(trainSolo.Instances) != 2 {
		t.Fatalf("single-point split: %d held, %d train instances, want 2 and 2",
			len(heldSolo), len(trainSolo.Instances))
	}
}

// TestLogCursorScanAllocations bounds what the retrainer's idle poll
// costs: a Scan past a committed checkpoint that finds no new rows. The
// cursor keeps one line reader and one probe buffer across scans, so
// what is left is opening and stat-ing the log.
func TestLogCursorScanAllocations(t *testing.T) {
	log, cur, _ := newCursorLog(t)
	// More than logProbeCap bytes of rows, so the probe hashes the
	// full 4 KiB.
	for i := 0; i < 100; i++ {
		if err := log.Append("i7-2600K", obsFor(500+i, 1e6)); err != nil {
			t.Fatal(err)
		}
	}
	s, err := cur.Scan()
	if err != nil || s.NewRows != 100 {
		t.Fatalf("scan = %+v, %v", s, err)
	}
	if s.next.ProbeLen != logProbeCap {
		t.Fatalf("probe covers %d bytes, want %d", s.next.ProbeLen, logProbeCap)
	}
	if err := cur.Commit(s); err != nil {
		t.Fatal(err)
	}
	scan := func() {
		if s, err := cur.Scan(); err != nil || s.NewRows != 0 || s.Rotated {
			t.Fatalf("idle scan = %+v, %v", s, err)
		}
	}
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		scan()
	}
	runtime.ReadMemStats(&after)
	bytesPer := (after.TotalAlloc - before.TotalAlloc) / runs
	allocs := testing.AllocsPerRun(runs, scan)
	t.Logf("idle Scan: %v allocations, %d bytes", allocs, bytesPer)
	// Measured 4 allocations and 376 bytes on linux/amd64.
	const allocLimit, byteLimit = 6, 1024
	if allocs > allocLimit || bytesPer > byteLimit {
		t.Errorf("idle Scan allocates %v times and %d bytes, want at most %d and %d",
			allocs, bytesPer, allocLimit, byteLimit)
	}
}
