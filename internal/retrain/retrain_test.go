package retrain

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/plan"
)

// The test battery shares one tiny exhaustive sweep and two tuners
// trained from it: a good one (trained on the sweep as measured) and a
// deliberately bad champion (trained on the sweep with runtimes
// inverted per instance, so it learned to prefer the worst
// configurations — its modeled runtimes diverge wildly from honest
// measurements).
var (
	fixtureOnce sync.Once
	fixtureErr  error
	tinySR      *core.SearchResult
	goodTun     *core.Tuner
	badTun      *core.Tuner
)

func fixtures(t *testing.T) (*core.SearchResult, *core.Tuner, *core.Tuner) {
	t.Helper()
	fixtureOnce.Do(func() {
		space := core.Space{
			Dims:      []int{300, 700, 1500},
			TSizes:    []float64{200, 3000},
			DSizes:    []int{1, 5},
			CPUTiles:  []int{1, 8},
			BandFracs: []float64{-1, 0.5, 1.0},
			HaloFracs: []float64{-1, 0, 1.0},
			GPUTiles:  []int{1, 8},
		}
		tinySR, fixtureErr = core.Exhaustive(hw.I7_2600K(), space, core.SearchOptions{})
		if fixtureErr != nil {
			return
		}
		goodTun, fixtureErr = core.Train(tinySR, core.DefaultTrainOptions())
		if fixtureErr != nil {
			return
		}
		badTun, fixtureErr = core.Train(invertSearch(tinySR), core.DefaultTrainOptions())
	})
	if fixtureErr != nil {
		t.Fatal(fixtureErr)
	}
	return tinySR, goodTun, badTun
}

// invertSearch flips each instance's runtimes around their midpoint, so
// the historically worst configuration becomes the best. A tuner
// trained on it predicts terrible parameter settings with the same
// confidence a real one predicts good ones.
func invertSearch(sr *core.SearchResult) *core.SearchResult {
	out := &core.SearchResult{Sys: sr.Sys, Space: sr.Space}
	for _, ir := range sr.Instances {
		nir := core.InstanceResult{Inst: ir.Inst, SerialNs: ir.SerialNs}
		lo, hi, any := 0.0, 0.0, false
		for _, p := range ir.Points {
			if p.Censored {
				continue
			}
			if !any || p.RTimeNs < lo {
				lo = p.RTimeNs
			}
			if !any || p.RTimeNs > hi {
				hi = p.RTimeNs
			}
			any = true
		}
		for _, p := range ir.Points {
			np := p
			if !p.Censored {
				np.RTimeNs = lo + hi - p.RTimeNs
			}
			nir.Points = append(nir.Points, np)
		}
		out.Instances = append(out.Instances, nir)
	}
	return out
}

// fakeChampions stands in for the server's champion table: one serving
// tuner and its generation (1 until the first promotion).
type fakeChampions struct {
	mu  sync.Mutex
	t   core.Predictor
	gen uint64
}

func newFakeChampions(t core.Predictor) *fakeChampions { return &fakeChampions{t: t, gen: 1} }

func (f *fakeChampions) Tuner(hw.System) (core.Predictor, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t, nil
}

func (f *fakeChampions) generation() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.gen
}

func (f *fakeChampions) Promote(system string, t core.Predictor) (uint64, int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.t = t
	f.gen++
	return f.gen, 0
}

// seedLog appends n honest observations (each instance's best measured
// configuration, lightly jittered) to the i7-2600K log in dir.
func seedLog(t *testing.T, dir string, n int) {
	t.Helper()
	sr, _, _ := fixtures(t)
	log, err := core.NewObservationLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	written := 0
	for i := 0; written < n; i++ {
		ir := sr.Instances[i%len(sr.Instances)]
		best, ok := ir.Best()
		if !ok {
			continue
		}
		obs := core.Observation{
			Inst:    ir.Inst,
			Par:     best.Par,
			RTimeNs: best.RTimeNs * (1 + 0.01*float64(i%3)),
			App:     "test",
		}
		if err := log.Append("i7-2600K", obs); err != nil {
			t.Fatal(err)
		}
		written++
	}
}

func testConfig(dir string, src *fakeChampions) Config {
	return Config{
		Systems:         []hw.System{hw.I7_2600K()},
		LogDir:          dir,
		MinObservations: 10,
		Champion:        src.Tuner,
		Promote:         src.Promote,
	}
}

// TestRetrainClearWinPromotesExactlyOnce is the happy path: a bad
// champion, honest observations, one RunOnce — exactly one promotion
// lands for exactly the affected system, the table's generation reaches
// 2, and the decision log reports the plans the hook dropped.
func TestRetrainClearWinPromotesExactlyOnce(t *testing.T) {
	_, _, bad := fixtures(t)
	dir := t.TempDir()
	seedLog(t, dir, 48)

	src := newFakeChampions(bad)
	var promotions atomic.Int64
	var invalidated []string
	cfg := testConfig(dir, src)
	cfg.Promote = func(system string, tun core.Predictor) (uint64, int) {
		promotions.Add(1)
		invalidated = append(invalidated, system)
		gen, _ := src.Promote(system, tun)
		return gen, 7
	}
	var logBuf bytes.Buffer
	cfg.Logger = slog.New(slog.NewJSONHandler(&logBuf, nil))
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.RunOnce(context.Background())

	st := r.Stats().Systems["i7-2600K"]
	if promotions.Load() != 1 {
		t.Fatalf("promotions = %d, want exactly 1 (status %+v)", promotions.Load(), st)
	}
	if src.generation() != 2 || st.Promotions != 1 || st.Retrains != 1 || st.LastVerdict != "promote" {
		t.Fatalf("generation %d, status = %+v", src.generation(), st)
	}
	if st.LastGenerationID == "" || st.LastPromotionUnix == 0 {
		t.Fatalf("promotion bookkeeping missing: %+v", st)
	}
	if len(invalidated) != 1 || invalidated[0] != "i7-2600K" {
		t.Fatalf("invalidated = %v, want exactly [i7-2600K]", invalidated)
	}
	if tun, err := src.Tuner(hw.I7_2600K()); err != nil || tun == bad {
		t.Fatalf("champion not replaced: tuner=%p err=%v", tun, err)
	}
	// The decision line carries the promotion as attributes, so a log
	// pipeline can filter it by system and generation.
	var line struct {
		Msg         string `json:"msg"`
		System      string `json:"system"`
		GenID       string `json:"gen_id"`
		Generation  uint64 `json:"generation"`
		Invalidated int    `json:"invalidated"`
		Verdict     Verdict
	}
	if err := json.Unmarshal(logBuf.Bytes(), &line); err != nil {
		t.Fatalf("decision log is not one JSON line: %v: %s", err, logBuf.String())
	}
	if line.Msg != "retrain promote" || line.System != "i7-2600K" || line.GenID != st.LastGenerationID ||
		line.Generation != 2 || line.Invalidated != 7 || line.Verdict.Reason != "promote" {
		t.Fatalf("decision log = %s", logBuf.String())
	}

	// The rows are consumed: a second pass must not retrain, let alone
	// promote again.
	r.RunOnce(context.Background())
	st = r.Stats().Systems["i7-2600K"]
	if st.Retrains != 1 || promotions.Load() != 1 || src.generation() != 2 {
		t.Fatalf("second pass re-ran: %+v, promotions %d", st, promotions.Load())
	}
	if got := r.Stats().Cycles; got != 2 {
		t.Fatalf("cycles = %d, want 2", got)
	}
}

// TestStatsNeverTornDuringPromotion: a Stats call that lands while a
// promotion is being applied — the table already serves the new
// generation — must not miss the promotion's counters and verdict.
func TestStatsNeverTornDuringPromotion(t *testing.T) {
	_, _, bad := fixtures(t)
	dir := t.TempDir()
	seedLog(t, dir, 48)

	src := newFakeChampions(bad)
	cfg := testConfig(dir, src)
	type poll struct {
		gen uint64
		st  SystemStatus
	}
	var r *Retrainer
	polled := make(chan poll, 1)
	cfg.Promote = func(system string, tun core.Predictor) (uint64, int) {
		gen, dropped := src.Promote(system, tun)
		go func() { polled <- poll{src.generation(), r.Stats().Systems[system]} }()
		// Hold the promotion open until the poll returns, or long enough
		// that it is waiting for the promotion to be published.
		select {
		case p := <-polled:
			polled <- p
		case <-time.After(100 * time.Millisecond):
		}
		return gen, dropped
	}
	var err error
	if r, err = New(cfg); err != nil {
		t.Fatal(err)
	}
	r.RunOnce(context.Background())
	// Without a promotion nothing polls, and the receive below would
	// block until the test binary times out.
	if st := r.Stats().Systems["i7-2600K"]; st.Promotions != 1 {
		t.Fatalf("no promotion to poll: %+v", st)
	}
	p := <-polled
	if st := p.st; p.gen != 2 || st.Promotions != 1 || st.Retrains != 1 || st.Verdict == nil || !st.Verdict.Promote {
		t.Fatalf("Stats at generation %d saw a half-applied status: %+v", p.gen, st)
	}
}

// TestRetrainTrainingErrorKeepsChampion injects a training failure (an
// all-rectangular log — sampling yields no training instances) and
// proves the champion keeps serving, the failure is counted, and the
// poisoned rows are consumed rather than retried forever.
func TestRetrainTrainingErrorKeepsChampion(t *testing.T) {
	_, good, _ := fixtures(t)
	dir := t.TempDir()
	log, err := core.NewObservationLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	rect := plan.Instance{Rows: 300, Cols: 500, TSize: 200, DSize: 1}
	for i := 0; i < 12; i++ {
		obs := core.Observation{
			Inst:    rect,
			Par:     plan.Params{CPUTile: 8, Band: -1, GPUTile: 1, Halo: -1},
			RTimeNs: 1e6 + float64(i),
			App:     "test",
		}
		if err := log.Append("i7-2600K", obs); err != nil {
			t.Fatal(err)
		}
	}
	log.Close()

	src := newFakeChampions(good)
	var promotions atomic.Int64
	cfg := testConfig(dir, src)
	cfg.Promote = func(system string, tun core.Predictor) (uint64, int) {
		promotions.Add(1)
		return src.Promote(system, tun)
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.RunOnce(context.Background())

	st := r.Stats().Systems["i7-2600K"]
	if st.Errors != 1 || st.Retrains != 1 || promotions.Load() != 0 {
		t.Fatalf("status = %+v, promotions %d", st, promotions.Load())
	}
	if !strings.HasPrefix(st.LastVerdict, "error:") {
		t.Fatalf("LastVerdict = %q, want an error verdict", st.LastVerdict)
	}
	if gen := src.generation(); gen != 1 {
		t.Fatalf("generation = %d, want the champion's 1", gen)
	}
	if tun, err := src.Tuner(hw.I7_2600K()); err != nil || tun != good {
		t.Fatalf("champion must keep serving: tuner=%p err=%v", tun, err)
	}
	// Poisoned rows were consumed; the loop does not spin on them.
	r.RunOnce(context.Background())
	if st := r.Stats().Systems["i7-2600K"]; st.Retrains != 1 {
		t.Fatalf("poisoned rows retried: %+v", st)
	}
}

// TestRetrainCorruptRowTolerated injects a garbage line and a torn
// (truncated) row into an otherwise healthy log: the bad rows are
// counted in telemetry and training proceeds on the good rows.
func TestRetrainCorruptRowTolerated(t *testing.T) {
	_, _, bad := fixtures(t)
	dir := t.TempDir()
	seedLog(t, dir, 48)
	path := core.ObservationLogPath(dir, "i7-2600K")
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// One complete garbage line, then a torn row without its newline.
	if _, err := f.WriteString("corrupt,row,that,goes,nowhere\ni7-2600K,700,200,1,8,"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	src := newFakeChampions(bad)
	r, err := New(testConfig(dir, src))
	if err != nil {
		t.Fatal(err)
	}
	r.RunOnce(context.Background())

	st := r.Stats().Systems["i7-2600K"]
	if st.BadRows != 1 {
		t.Fatalf("bad rows = %d, want the 1 complete garbage line", st.BadRows)
	}
	if st.Promotions != 1 || st.LastVerdict != "promote" {
		t.Fatalf("corrupt row stalled the retrain: %+v", st)
	}
}

// TestRetrainAgeTrigger: rows below MinObservations wait, and once the
// oldest has waited DefaultMaxAge a single pass retrains on them.
func TestRetrainAgeTrigger(t *testing.T) {
	_, _, bad := fixtures(t)
	dir := t.TempDir()
	seedLog(t, dir, 4)
	cfg := testConfig(dir, newFakeChampions(bad))
	if cfg.MinObservations <= 4 {
		t.Fatalf("MinObservations %d: the log must sit below the size threshold", cfg.MinObservations)
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.RunOnce(context.Background())
	if st := r.Stats().Systems["i7-2600K"]; st.Retrains != 0 || st.PendingRows != 4 {
		t.Fatalf("below both thresholds: %+v", st)
	}

	r.mu.Lock()
	r.st["i7-2600K"].firstPending = time.Now().Add(-DefaultMaxAge)
	r.mu.Unlock()
	r.RunOnce(context.Background())
	if st := r.Stats().Systems["i7-2600K"]; st.Retrains != 1 || st.PendingRows != 0 {
		t.Fatalf("aged rows did not retrain: %+v", st)
	}
}

// TestRetrainRotationMidRead rotates the log between passes: consumed
// rows must never count again (no re-training on them), and rows in the
// replacement file count from scratch.
func TestRetrainRotationMidRead(t *testing.T) {
	_, good, _ := fixtures(t)
	dir := t.TempDir()
	seedLog(t, dir, 12)

	src := newFakeChampions(good)
	r, err := New(testConfig(dir, src))
	if err != nil {
		t.Fatal(err)
	}
	r.RunOnce(context.Background())
	if st := r.Stats().Systems["i7-2600K"]; st.Retrains != 1 {
		t.Fatalf("first pass did not train: %+v", st)
	}

	// Rotate the consumed log aside (wavetrain -from's fold) and write a
	// below-threshold trickle into the fresh file.
	path := core.ObservationLogPath(dir, "i7-2600K")
	if err := os.Rename(path, path+".old"); err != nil {
		t.Fatal(err)
	}
	seedLog(t, dir, 4)
	r.RunOnce(context.Background())
	st := r.Stats().Systems["i7-2600K"]
	if st.Retrains != 1 {
		t.Fatalf("rotation re-triggered training on consumed rows: %+v", st)
	}
	if st.PendingRows != 4 {
		t.Fatalf("pending = %d, want only the 4 fresh rows", st.PendingRows)
	}

	// Crossing the threshold in the new file trains again — on the new
	// file's rows alone.
	seedLog(t, dir, 8)
	r.RunOnce(context.Background())
	if st := r.Stats().Systems["i7-2600K"]; st.Retrains != 2 {
		t.Fatalf("fresh rows did not train: %+v", st)
	}
}

// TestRetrainerStartStopNotify exercises the loop lifecycle: Notify
// wakes it without waiting out the interval, Stop drains it, and a
// never-started retrainer stops cleanly.
func TestRetrainerStartStopNotify(t *testing.T) {
	_, good, _ := fixtures(t)
	src := newFakeChampions(good)
	cfg := testConfig(t.TempDir(), src)
	cfg.Interval = time.Hour // only Notify can wake it in test time
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	r.Notify("i7-2600K")
	deadline := time.Now().Add(5 * time.Second)
	for r.Stats().Cycles == 0 {
		if time.Now().After(deadline) {
			t.Fatal("Notify did not wake the loop")
		}
		time.Sleep(5 * time.Millisecond)
	}
	r.Stop()
	r.Stop() // idempotent

	r2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2.Stop() // never started: must not hang
}
