package jobs

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/plan"
	"repro/internal/tunecache"
)

// fixedPlan is a fast PlanFunc: a canned CPU-only decision, so job
// execution costs one cheap engine estimate.
func fixedPlan(system string, inst plan.Instance) (tunecache.Plan, tunecache.Outcome, error) {
	return tunecache.Plan{
		Par:     plan.Params{CPUTile: 8, Band: -1, GPUTile: 1, Halo: -1},
		RTimeNs: 1000, SerialNs: 2000,
	}, tunecache.Miss, nil
}

// gatedPlan blocks every plan fetch until the gate channel is closed,
// and records the order instances were picked up in.
type gatedPlan struct {
	gate chan struct{}
	mu   sync.Mutex
	seen []plan.Instance
}

func newGatedPlan() *gatedPlan { return &gatedPlan{gate: make(chan struct{})} }

func (g *gatedPlan) fetch(system string, inst plan.Instance) (tunecache.Plan, tunecache.Outcome, error) {
	g.mu.Lock()
	g.seen = append(g.seen, inst)
	g.mu.Unlock()
	<-g.gate
	return fixedPlan(system, inst)
}

func (g *gatedPlan) order() []plan.Instance {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]plan.Instance(nil), g.seen...)
}

func testInst(dim int) plan.Instance {
	return plan.Instance{Dim: dim, TSize: 100, DSize: 1}
}

func newManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	if cfg.Plans == nil {
		cfg.Plans = fixedPlan
	}
	if len(cfg.Systems) == 0 {
		cfg.Systems = []hw.System{hw.I7_2600K()}
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		m.Shutdown(ctx)
	})
	return m
}

func await(t *testing.T, m *Manager, id string) Job {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	j, err := m.Await(ctx, id)
	if err != nil {
		t.Fatalf("awaiting %s: %v", id, err)
	}
	return j
}

func TestJobLifecycle(t *testing.T) {
	m := newManager(t, Config{Workers: 2})
	j, err := m.Submit(Spec{System: "i7-2600K", Inst: testInst(300)})
	if err != nil {
		t.Fatal(err)
	}
	if j.State != StateQueued {
		t.Errorf("submit snapshot state = %v, want queued", j.State)
	}
	if j.ID == "" || j.Created.IsZero() {
		t.Errorf("snapshot incomplete: %+v", j)
	}

	done := await(t, m, j.ID)
	if done.State != StateSucceeded {
		t.Fatalf("state = %v (err %q), want succeeded", done.State, done.Err)
	}
	r := done.Result
	if r == nil {
		t.Fatal("succeeded job has no result")
	}
	if r.Cache != "miss" || r.MeasuredNs <= 0 || r.PredictedNs != 1000 || r.SerialNs != 2000 {
		t.Errorf("result = %+v", r)
	}
	if r.Refine != nil {
		t.Error("non-refine job reported refinement stats")
	}
	if done.Started.Before(done.Created) || done.Finished.Before(done.Started) {
		t.Errorf("timestamps out of order: %+v", done)
	}

	st := m.Stats()
	if st.Submitted != 1 || st.Succeeded != 1 || st.Queued != 0 || st.Running != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSubmitValidation(t *testing.T) {
	m := newManager(t, Config{})
	cases := []Spec{
		{System: "riscv", Inst: testInst(100)},                  // unknown system
		{System: "i7-2600K"},                                    // invalid instance
		{System: "i7-2600K", Inst: testInst(100), Priority: 99}, // invalid priority
		{System: "i7-2600K", Inst: testInst(100), Refine: true}, // no tuner source
		{System: "i7-2600K", Inst: testInst(100), Priority: -1}, // invalid priority
	}
	for i, spec := range cases {
		if _, err := m.Submit(spec); err == nil {
			t.Errorf("case %d: Submit(%+v) accepted", i, spec)
		}
	}
}

func TestPriorityOrdering(t *testing.T) {
	g := newGatedPlan()
	m := newManager(t, Config{Workers: 1, QueueDepth: 8, Plans: g.fetch})

	// Occupy the single worker so later submissions queue up.
	blocker, err := m.Submit(Spec{System: "i7-2600K", Inst: testInst(100)})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the worker is inside the gated fetch.
	for len(g.order()) == 0 {
		time.Sleep(time.Millisecond)
	}
	low, err := m.Submit(Spec{System: "i7-2600K", Inst: testInst(200), Priority: PriorityLow})
	if err != nil {
		t.Fatal(err)
	}
	norm, err := m.Submit(Spec{System: "i7-2600K", Inst: testInst(300)})
	if err != nil {
		t.Fatal(err)
	}
	high, err := m.Submit(Spec{System: "i7-2600K", Inst: testInst(400), Priority: PriorityHigh})
	if err != nil {
		t.Fatal(err)
	}
	close(g.gate)
	for _, id := range []string{blocker.ID, low.ID, norm.ID, high.ID} {
		await(t, m, id)
	}
	order := g.order()
	if len(order) != 4 {
		t.Fatalf("fetched %d plans, want 4", len(order))
	}
	want := []int{100, 400, 300, 200} // blocker, then high > normal > low
	for i, in := range order {
		if in.Dim != want[i] {
			t.Fatalf("execution order = %v, want dims %v", order, want)
		}
	}
}

func TestQueueOverflow(t *testing.T) {
	g := newGatedPlan()
	m := newManager(t, Config{Workers: 1, QueueDepth: 1, Plans: g.fetch})
	defer close(g.gate)

	if _, err := m.Submit(Spec{System: "i7-2600K", Inst: testInst(100)}); err != nil {
		t.Fatal(err)
	}
	for len(g.order()) == 0 {
		time.Sleep(time.Millisecond)
	}
	// The worker is busy; depth 1 admits exactly one queued job.
	if _, err := m.Submit(Spec{System: "i7-2600K", Inst: testInst(200)}); err != nil {
		t.Fatal(err)
	}
	_, err := m.Submit(Spec{System: "i7-2600K", Inst: testInst(300)})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow err = %v, want ErrQueueFull", err)
	}
	if st := m.Stats(); st.Rejected != 1 || st.Queued != 1 {
		t.Errorf("stats = %+v, want 1 rejected 1 queued", st)
	}
}

func TestCancelQueued(t *testing.T) {
	g := newGatedPlan()
	m := newManager(t, Config{Workers: 1, QueueDepth: 4, Plans: g.fetch})
	defer close(g.gate)

	if _, err := m.Submit(Spec{System: "i7-2600K", Inst: testInst(100)}); err != nil {
		t.Fatal(err)
	}
	for len(g.order()) == 0 {
		time.Sleep(time.Millisecond)
	}
	queued, err := m.Submit(Spec{System: "i7-2600K", Inst: testInst(200)})
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Cancel(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateCanceled || !got.CancelRequested || got.Finished.IsZero() {
		t.Errorf("canceled snapshot = %+v", got)
	}
	// Double cancel: already finished.
	if _, err := m.Cancel(queued.ID); !errors.Is(err, ErrFinished) {
		t.Errorf("second cancel err = %v, want ErrFinished", err)
	}
	if _, err := m.Cancel("job-bogus"); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown cancel err = %v, want ErrNotFound", err)
	}
	if st := m.Stats(); st.Canceled != 1 || st.Queued != 0 {
		t.Errorf("stats = %+v, want 1 canceled 0 queued", st)
	}
	// The canceled job must never execute.
	if len(g.order()) != 1 {
		t.Errorf("canceled job was executed: %v", g.order())
	}
}

func TestCancelRunning(t *testing.T) {
	g := newGatedPlan()
	m := newManager(t, Config{Workers: 1, Plans: g.fetch})

	j, err := m.Submit(Spec{System: "i7-2600K", Inst: testInst(100)})
	if err != nil {
		t.Fatal(err)
	}
	for len(g.order()) == 0 {
		time.Sleep(time.Millisecond)
	}
	got, err := m.Cancel(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	// The worker is still blocked in the plan fetch: the snapshot
	// reports a running job with the cancellation pending.
	if got.State != StateRunning || !got.CancelRequested {
		t.Errorf("snapshot after cancel = %+v", got)
	}
	close(g.gate)
	done := await(t, m, j.ID)
	if done.State != StateCanceled {
		t.Errorf("final state = %v, want canceled", done.State)
	}
	if done.Result != nil {
		t.Error("canceled job still produced a result")
	}
}

func TestListFilters(t *testing.T) {
	g := newGatedPlan()
	m := newManager(t, Config{Workers: 1, QueueDepth: 8, Plans: g.fetch,
		Systems: []hw.System{hw.I7_2600K(), hw.I3_540()}})

	if _, err := m.Submit(Spec{System: "i7-2600K", Inst: testInst(100)}); err != nil {
		t.Fatal(err)
	}
	for len(g.order()) == 0 {
		time.Sleep(time.Millisecond)
	}
	if _, err := m.Submit(Spec{System: "i3-540", Inst: testInst(200)}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(Spec{System: "i7-2600K", Inst: testInst(300)}); err != nil {
		t.Fatal(err)
	}

	if all := m.List(Filter{}); len(all) != 3 {
		t.Errorf("List(all) = %d jobs, want 3", len(all))
	}
	queued := StateQueued
	if l := m.List(Filter{State: &queued}); len(l) != 2 {
		t.Errorf("List(queued) = %d jobs, want 2", len(l))
	}
	if l := m.List(Filter{System: "i3-540"}); len(l) != 1 || l[0].Inst.Dim != 200 {
		t.Errorf("List(i3-540) = %+v", l)
	}
	running := StateRunning
	if l := m.List(Filter{State: &running}); len(l) != 1 || l[0].Inst.Dim != 100 {
		t.Errorf("List(running) = %+v", l)
	}
	// Submission order.
	all := m.List(Filter{})
	for i := 1; i < len(all); i++ {
		if all[i-1].ID >= all[i].ID {
			t.Errorf("List out of submission order: %v >= %v", all[i-1].ID, all[i].ID)
		}
	}
	close(g.gate)
}

func TestShutdownDrainsQueue(t *testing.T) {
	m := newManager(t, Config{Workers: 2, QueueDepth: 32})
	var ids []string
	for i := 0; i < 10; i++ {
		j, err := m.Submit(Spec{System: "i7-2600K", Inst: testInst(100 + i)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		j, ok := m.Get(id)
		if !ok || j.State != StateSucceeded {
			t.Errorf("after drain, job %s = %+v", id, j)
		}
	}
	if _, err := m.Submit(Spec{System: "i7-2600K", Inst: testInst(50)}); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after shutdown err = %v, want ErrClosed", err)
	}
}

func TestShutdownAbortCancelsQueued(t *testing.T) {
	g := newGatedPlan()
	m := newManager(t, Config{Workers: 1, QueueDepth: 4, Plans: g.fetch})

	running, err := m.Submit(Spec{System: "i7-2600K", Inst: testInst(100)})
	if err != nil {
		t.Fatal(err)
	}
	for len(g.order()) == 0 {
		time.Sleep(time.Millisecond)
	}
	queued, err := m.Submit(Spec{System: "i7-2600K", Inst: testInst(200)})
	if err != nil {
		t.Fatal(err)
	}

	shutdownDone := make(chan error, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	go func() { shutdownDone <- m.Shutdown(ctx) }()

	// Once the drain deadline expires the queued job is canceled; the
	// blocked running one gets its context canceled and finishes
	// canceled as soon as the fetch returns.
	qj := await(t, m, queued.ID)
	if qj.State != StateCanceled {
		t.Errorf("queued job after abort = %v, want canceled", qj.State)
	}
	close(g.gate)
	if err := <-shutdownDone; !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("aborted Shutdown err = %v, want deadline exceeded", err)
	}
	rj, _ := m.Get(running.ID)
	if rj.State != StateCanceled {
		t.Errorf("running job after abort = %v, want canceled", rj.State)
	}
}

// TestShutdownAbortNotHostageToStuckWorker: a worker blocked inside a
// non-cancelable plan fetch must not keep an aborted Shutdown waiting
// beyond the grace period.
func TestShutdownAbortNotHostageToStuckWorker(t *testing.T) {
	g := newGatedPlan()
	m := newManager(t, Config{Workers: 1, Plans: g.fetch})
	// Released only when the test returns (before cleanup's Shutdown),
	// so the worker is stuck for the whole aborted shutdown.
	defer close(g.gate)

	if _, err := m.Submit(Spec{System: "i7-2600K", Inst: testInst(100)}); err != nil {
		t.Fatal(err)
	}
	for len(g.order()) == 0 {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := m.Shutdown(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Shutdown err = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > abortGrace+3*time.Second {
		t.Errorf("aborted Shutdown took %v, want bounded by the grace period", elapsed)
	}
}

func TestFailedPlanFetch(t *testing.T) {
	boom := errors.New("no tuner")
	m := newManager(t, Config{Plans: func(string, plan.Instance) (tunecache.Plan, tunecache.Outcome, error) {
		return tunecache.Plan{}, tunecache.Miss, boom
	}})
	j, err := m.Submit(Spec{System: "i7-2600K", Inst: testInst(100)})
	if err != nil {
		t.Fatal(err)
	}
	done := await(t, m, j.ID)
	if done.State != StateFailed || done.Err == "" {
		t.Errorf("job = %+v, want failed with message", done)
	}
	if st := m.Stats(); st.Failed != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestRecordPruning(t *testing.T) {
	m := newManager(t, Config{Workers: 1, QueueDepth: 32, MaxRecords: 3})
	var ids []string
	for i := 0; i < 6; i++ {
		j, err := m.Submit(Spec{System: "i7-2600K", Inst: testInst(100 + i)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	for _, id := range ids {
		// Records may be pruned once later jobs finish; await tolerates
		// only live ones.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if _, err := m.Await(ctx, id); err != nil && !errors.Is(err, ErrNotFound) {
			t.Fatal(err)
		}
		cancel()
	}
	// Wait for all to finish, then the oldest finished must be pruned.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if st := m.Stats(); st.Succeeded == 6 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("jobs never finished")
		}
		time.Sleep(time.Millisecond)
	}
	if got := len(m.List(Filter{})); got != 3 {
		t.Errorf("retained records = %d, want 3", got)
	}
	if _, ok := m.Get(ids[0]); ok {
		t.Error("oldest finished record was not pruned")
	}
	if _, ok := m.Get(ids[5]); !ok {
		t.Error("newest record must be retained")
	}
}

// refineManager builds a manager over a real trained tuner and cache,
// exercising the full refine feedback path.
func refineManager(t *testing.T, logDir string) (*Manager, *core.Tuner) {
	t.Helper()
	tun := refineTuner(t)
	cache := tunecache.NewShardedCtx(16, 0, func(_ context.Context, system string, in plan.Instance) (tunecache.Plan, error) {
		pred, rtime, serial, err := tun.PredictTimed(in)
		if err != nil {
			return tunecache.Plan{}, err
		}
		return tunecache.Plan{Serial: pred.Serial, Par: pred.Par, RTimeNs: rtime, SerialNs: serial}, nil
	})
	var obs *core.ObservationLog
	if logDir != "" {
		var err error
		if obs, err = core.NewObservationLog(logDir); err != nil {
			t.Fatal(err)
		}
	}
	m := newManager(t, Config{
		Workers:     2,
		Plans:       cache.Get,
		Tuners:      func(string) (core.Predictor, error) { return tun, nil },
		TrainingLog: obs,
	})
	return m, tun
}

var (
	refineTunerOnce sync.Once
	refineTun       *core.Tuner
	refineTunErr    error
)

// refineTuner trains one small-space tuner per test binary.
func refineTuner(t *testing.T) *core.Tuner {
	t.Helper()
	refineTunerOnce.Do(func() {
		space := core.Space{
			Dims:      []int{300, 900, 1900},
			TSizes:    []float64{10, 500, 4000},
			DSizes:    []int{1, 5},
			CPUTiles:  []int{1, 8},
			BandFracs: []float64{-1, 0.5, 1.0},
			HaloFracs: []float64{-1, 0, 1.0},
			GPUTiles:  []int{1, 8},
		}
		sr, err := core.Exhaustive(hw.I7_2600K(), space, core.SearchOptions{})
		if err != nil {
			refineTunErr = err
			return
		}
		refineTun, refineTunErr = core.Train(sr, core.DefaultTrainOptions())
	})
	if refineTunErr != nil {
		t.Fatal(refineTunErr)
	}
	return refineTun
}

func TestRefineJobFeedsTrainingLog(t *testing.T) {
	dir := t.TempDir()
	const budget = 12 // the online tuner's fixed probe budget
	m, _ := refineManager(t, dir)

	inst := plan.Instance{Dim: 1900, TSize: 4000, DSize: 1}
	j, err := m.Submit(Spec{System: "i7-2600K", Inst: inst, Refine: true})
	if err != nil {
		t.Fatal(err)
	}
	done := await(t, m, j.ID)
	if done.State != StateSucceeded {
		t.Fatalf("refine job = %v (err %q)", done.State, done.Err)
	}
	r := done.Result
	if r == nil || r.Refine == nil {
		t.Fatalf("refine job missing refinement stats: %+v", r)
	}
	if r.Refine.Probes < 1 || r.Refine.Probes > budget {
		t.Errorf("probes = %d, want within budget %d", r.Refine.Probes, budget)
	}
	if r.MeasuredNs != r.Refine.FinalNs {
		t.Errorf("measured %v != refined final %v", r.MeasuredNs, r.Refine.FinalNs)
	}
	if r.Refine.FinalNs > r.Refine.StartNs {
		t.Errorf("refinement regressed: %v -> %v", r.Refine.StartNs, r.Refine.FinalNs)
	}

	st := m.Stats()
	if st.Refined != 1 {
		t.Errorf("stats = %+v, want 1 refined", st)
	}
	if !done.Result.Serial {
		if st.TrainingRows != 1 {
			t.Fatalf("training rows = %d, want 1", st.TrainingRows)
		}
		f, err := os.Open(fmt.Sprintf("%s/i7-2600K.csv", dir))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		sr, err := core.ReadCSV(f)
		if err != nil {
			t.Fatalf("training log unreadable by wavetrain: %v", err)
		}
		p := sr.Instances[0].Points[0]
		if p.Par != r.Par || p.RTimeNs != r.MeasuredNs {
			t.Errorf("logged observation %+v != result %+v", p, r)
		}
	}
}

// TestAppParamsNotAliased pins the immutability contract of Job
// snapshots: a caller mutating the map it submitted, or the map a
// snapshot returned, must not rewrite the stored record.
func TestAppParamsNotAliased(t *testing.T) {
	m := newManager(t, Config{})
	defer m.Shutdown(context.Background())
	params := map[string]float64{"rounds": 2}
	j, err := m.Submit(Spec{System: "i7-2600K", Inst: testInst(64), App: "nash", AppParams: params})
	if err != nil {
		t.Fatal(err)
	}
	params["rounds"] = 99       // caller reuses its map after Submit
	j.AppParams["rounds"] = 1e9 // caller scribbles on a snapshot
	got, ok := m.Get(j.ID)
	if !ok {
		t.Fatal("job disappeared")
	}
	if got.AppParams["rounds"] != 2 {
		t.Errorf("stored app params mutated through an aliased map: %v", got.AppParams)
	}
}

// TestRetryAfterHint pins the derived 429 backoff: it scales with the
// observed service time and the backlog, clamps to [1s, 60s], and
// rounds up to whole seconds (the header carries integers).
func TestRetryAfterHint(t *testing.T) {
	sec := float64(time.Second)
	cases := []struct {
		name    string
		avgNs   float64
		queued  int
		workers int
		want    time.Duration
	}{
		{"no observation yet", 0, 10, 4, time.Second},
		{"no workers", 5 * sec, 10, 0, time.Second},
		{"fast jobs clamp to the floor", 0.01 * sec, 2, 4, time.Second},
		// 10s avg, 4 workers, empty queue: 10/4 = 2.5s, rounded up.
		{"service time alone", 10 * sec, 0, 4, 3 * time.Second},
		// Same service time, 8 queued over 4 workers: 2.5 * (1+2) = 7.5s.
		{"backlog scales the hint", 10 * sec, 8, 4, 8 * time.Second},
		{"slow jobs clamp to the ceiling", 600 * sec, 64, 2, time.Minute},
	}
	for _, tc := range cases {
		if got := RetryAfterHint(tc.avgNs, tc.queued, tc.workers); got != tc.want {
			t.Errorf("%s: RetryAfterHint(%v, %d, %d) = %v, want %v",
				tc.name, time.Duration(tc.avgNs), tc.queued, tc.workers, got, tc.want)
		}
	}
}

// TestServiceTimeObserved: finishing jobs feed the moving average that
// RetryAfter derives from; jobs canceled while still queued do not.
func TestServiceTimeObserved(t *testing.T) {
	m := newManager(t, Config{Workers: 1})
	defer m.Shutdown(context.Background())
	if m.Stats().AvgServiceSec != 0 {
		t.Fatal("avg service time non-zero before any job ran")
	}
	j, err := m.Submit(Spec{System: "i7-2600K", Inst: testInst(64)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Await(context.Background(), j.ID); err != nil {
		t.Fatal(err)
	}
	if m.Stats().AvgServiceSec <= 0 {
		t.Error("finished job did not feed the service-time average")
	}
	if hint := m.RetryAfter(); hint < time.Second || hint > time.Minute {
		t.Errorf("RetryAfter() = %v, want within [1s, 60s]", hint)
	}
}
