package jobs

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"maps"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/hw"
	"repro/internal/plan"
	"repro/internal/telemetry"
)

// record is one job's mutable state. All fields except the immutable
// id/spec/ctx/cancel are guarded by the manager's mutex; done closes
// exactly when the record reaches a terminal state.
type record struct {
	id     string
	spec   Spec
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	state           State
	cancelRequested bool
	err             string
	created         time.Time
	started         time.Time
	finished        time.Time
	result          *Result
}

// snapshot copies the record into an immutable Job. Caller holds the
// manager's mutex.
func (r *record) snapshot() Job {
	j := Job{
		ID: r.id, Spec: r.spec, State: r.state,
		CancelRequested: r.cancelRequested, Err: r.err,
		Created: r.created, Started: r.started, Finished: r.finished,
	}
	// Snapshots never alias the record's map: callers may write to it.
	j.AppParams = maps.Clone(r.spec.AppParams)
	if r.result != nil {
		res := *r.result
		if r.result.Refine != nil {
			st := *r.result.Refine
			res.Refine = &st
		}
		j.Result = &res
	}
	return j
}

// Manager owns the queue, the worker pool, the job records and the
// pipeline records.
type Manager struct {
	cfg     Config
	systems map[string]hw.System

	mu   sync.Mutex
	cond *sync.Cond
	// spaceCond signals queue slots opening up (a worker popped a job, a
	// queued job was canceled, or the manager aborted); pipeline drivers
	// wait on it to admit a wave into a momentarily full queue. It is a
	// separate condition from cond because the two waiter populations
	// have opposite predicates — waking a driver with a worker's Signal
	// (or vice versa) could strand the intended waiter.
	spaceCond *sync.Cond
	queues    [numPriorities][]*record
	records   map[string]*record
	// finished holds terminal records in completion order for pruning.
	finished []*record
	seq      int
	queuedN  int
	running  int
	started  bool
	closed   bool
	abort    bool
	stats    Stats
	// avgServiceNs is an exponential moving average of observed job
	// service times (start to finish), feeding the Retry-After hint on
	// admission-control rejections. Zero until the first job finishes.
	avgServiceNs float64

	// Pipeline state: records by ID, terminal records in completion
	// order for pruning, and the live count that keeps workers alive
	// through a graceful drain (a pipeline between waves has an empty
	// queue but more work coming).
	pipes        map[string]*pipelineRecord
	pipeFinished []*pipelineRecord
	pipeSeq      int
	activePipes  int
	pstats       PipelineStats

	wg sync.WaitGroup
	// pwg tracks pipeline driver goroutines; Shutdown waits for both.
	pwg sync.WaitGroup
}

// New validates cfg and returns the manager; the worker pool starts
// lazily on the first submission.
func New(cfg Config) (*Manager, error) {
	if cfg.Plans == nil {
		return nil, fmt.Errorf("jobs: Config.Plans is required")
	}
	if len(cfg.Systems) == 0 {
		cfg.Systems = hw.Systems()
	}
	if cfg.Workers <= 0 {
		cfg.Workers = DefaultWorkers
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.MaxRecords <= 0 {
		cfg.MaxRecords = DefaultMaxRecords
	}
	if cfg.MaxPipelines <= 0 {
		cfg.MaxPipelines = DefaultMaxPipelines
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	m := &Manager{
		cfg:     cfg,
		systems: make(map[string]hw.System, len(cfg.Systems)),
		records: make(map[string]*record),
		pipes:   make(map[string]*pipelineRecord),
	}
	for _, sys := range cfg.Systems {
		if sys.Name == "" {
			return nil, fmt.Errorf("jobs: system with empty name")
		}
		if _, dup := m.systems[sys.Name]; dup {
			return nil, fmt.Errorf("jobs: duplicate system %q", sys.Name)
		}
		m.systems[sys.Name] = sys
	}
	m.cond = sync.NewCond(&m.mu)
	m.spaceCond = sync.NewCond(&m.mu)
	return m, nil
}

// startLocked spawns the worker pool on the first submission, so a
// manager that never receives a job (e.g. a server constructed only to
// mount its handler) costs no goroutines. Caller holds m.mu.
func (m *Manager) startLocked() {
	if m.started {
		return
	}
	m.started = true
	m.wg.Add(m.cfg.Workers)
	for i := 0; i < m.cfg.Workers; i++ {
		go m.worker()
	}
}

// checkSpec validates spec against the manager's configuration and
// returns it with its instance normalized and its parameter map
// detached from the caller's: the spec outlives admission inside the
// record, and a caller mutating its map afterwards must not rewrite the
// stored (documented-immutable) job. The errors carry no package
// prefix; Submit and validatePipeline each add their own.
func (m *Manager) checkSpec(spec Spec) (Spec, error) {
	if _, ok := m.systems[spec.System]; !ok {
		return spec, fmt.Errorf("unknown system %q", spec.System)
	}
	if err := spec.Inst.Validate(); err != nil {
		return spec, err
	}
	if spec.Priority < 0 || spec.Priority >= numPriorities {
		return spec, fmt.Errorf("invalid priority %d", spec.Priority)
	}
	if spec.Refine && m.cfg.Tuners == nil {
		return spec, errors.New("refinement not configured (no tuner source)")
	}
	spec.Inst = spec.Inst.Normalize()
	spec.AppParams = maps.Clone(spec.AppParams)
	return spec, nil
}

// enqueueLocked admits a checked spec as a new queued record and wakes
// a worker. Caller holds m.mu and has checked the queue has room.
func (m *Manager) enqueueLocked(spec Spec) *record {
	m.seq++
	ctx, cancel := context.WithCancel(context.Background())
	rec := &record{
		id: fmt.Sprintf("job-%08d", m.seq), spec: spec,
		ctx: ctx, cancel: cancel, done: make(chan struct{}),
		state: StateQueued, created: time.Now(),
	}
	m.records[rec.id] = rec
	m.queues[spec.Priority] = append(m.queues[spec.Priority], rec)
	m.queuedN++
	m.stats.Submitted++
	m.cond.Signal()
	return rec
}

// Submit validates spec and admits it into the queue. The returned
// snapshot is taken before any worker can pick the job up, so its state
// is always StateQueued. ErrQueueFull reports admission-control
// rejection; ErrClosed a manager already shutting down.
func (m *Manager) Submit(spec Spec) (Job, error) {
	spec, err := m.checkSpec(spec)
	if err != nil {
		return Job{}, fmt.Errorf("jobs: %w", err)
	}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return Job{}, ErrClosed
	}
	if m.queuedN >= m.cfg.QueueDepth {
		m.stats.Rejected++
		m.mu.Unlock()
		return Job{}, ErrQueueFull
	}
	m.startLocked()
	rec := m.enqueueLocked(spec)
	snap := rec.snapshot()
	m.mu.Unlock()
	// Logging runs outside the critical section: a handler may be
	// arbitrarily slow without stalling the pool.
	if m.cfg.Logger.Enabled(context.Background(), slog.LevelInfo) {
		m.cfg.Logger.Info("job queued", "job_id", rec.id, "system", spec.System,
			"instance", spec.Inst.String(), "priority", spec.Priority.String(), "refine", spec.Refine)
	}
	return snap, nil
}

// Get returns a snapshot of the job with the given ID.
func (m *Manager) Get(id string) (Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rec, ok := m.records[id]
	if !ok {
		return Job{}, false
	}
	return rec.snapshot(), true
}

// Await blocks until the job reaches a terminal state (or ctx is done)
// and returns its final snapshot.
func (m *Manager) Await(ctx context.Context, id string) (Job, error) {
	m.mu.Lock()
	rec, ok := m.records[id]
	m.mu.Unlock()
	if !ok {
		return Job{}, ErrNotFound
	}
	select {
	case <-rec.done:
	case <-ctx.Done():
		return Job{}, ctx.Err()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return rec.snapshot(), nil
}

// List returns snapshots of the retained jobs matching f, in submission
// order.
func (m *Manager) List(f Filter) []Job {
	m.mu.Lock()
	out := make([]Job, 0, len(m.records))
	for _, rec := range m.records {
		if f.State != nil && rec.state != *f.State {
			continue
		}
		if f.System != "" && rec.spec.System != f.System {
			continue
		}
		out = append(out, rec.snapshot())
	}
	m.mu.Unlock()
	// IDs are zero-padded sequence numbers, so lexicographic order is
	// submission order. The sort runs on the copy, off the lock.
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Cancel cancels a job: a queued job is removed from the queue and
// finishes canceled immediately; a running job has its context canceled
// and finishes once the worker observes it (the returned snapshot then
// still reports StateRunning with CancelRequested set). Canceling an
// already finished job returns its snapshot with ErrFinished.
func (m *Manager) Cancel(id string) (Job, error) {
	m.mu.Lock()
	rec, ok := m.records[id]
	if !ok {
		m.mu.Unlock()
		return Job{}, ErrNotFound
	}
	if rec.state.Finished() {
		snap := rec.snapshot()
		m.mu.Unlock()
		return snap, ErrFinished
	}
	outcome := m.cancelRecordLocked(rec)
	snap := rec.snapshot()
	m.mu.Unlock()
	m.cfg.Logger.Info("job cancel", "job_id", rec.id, "outcome", outcome)
	return snap, nil
}

// cancelRecordLocked cancels a non-terminal job record: a queued job is
// removed from the queue and finishes canceled immediately (freeing its
// queue slot); a running job has its context canceled and finishes once
// the worker observes it. Caller holds m.mu and has checked the record
// is not finished.
func (m *Manager) cancelRecordLocked(rec *record) string {
	switch rec.state {
	case StateQueued:
		q := m.queues[rec.spec.Priority]
		for i, r := range q {
			if r == rec {
				m.queues[rec.spec.Priority] = append(q[:i:i], q[i+1:]...)
				break
			}
		}
		m.queuedN--
		m.spaceCond.Broadcast()
		rec.cancelRequested = true
		m.finishLocked(rec, StateCanceled, nil, "")
		return "canceled while queued"
	case StateRunning:
		rec.cancelRequested = true
		rec.cancel()
		return "cancellation requested"
	}
	return ""
}

// Stats returns a snapshot of the counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.stats
	s.Queued = m.queuedN
	s.Running = m.running
	s.Workers = m.cfg.Workers
	s.QueueDepth = m.cfg.QueueDepth
	s.AvgServiceSec = m.avgServiceNs / 1e9
	return s
}

// Retry-After clamp range: never tell a client to come back in less
// than a second (sub-second hints round to zero in the integer header)
// or more than a minute (a longer hint is a guess, not a schedule).
const (
	minRetryAfter = time.Second
	maxRetryAfter = time.Minute
)

// RetryAfterHint derives the Retry-After value for a queue-full
// rejection from the observed average service time and the current
// backlog. A queue slot opens when the next running job completes —
// with every worker busy that is avgService/workers on average — and a
// backlog of queued jobs competing for readmission pushes the realistic
// horizon out proportionally, so the hint scales with queued/workers.
// The result is clamped to [1s, 60s] and rounded up to a whole second
// (the header carries integer seconds). With no observation yet
// (avgServiceNs <= 0) the hint is the minimum: an empty history means
// the queue filled before anything finished, and there is nothing
// better to say than "shortly".
func RetryAfterHint(avgServiceNs float64, queued, workers int) time.Duration {
	if avgServiceNs <= 0 || workers <= 0 {
		return minRetryAfter
	}
	est := time.Duration(avgServiceNs / float64(workers) * (1 + float64(queued)/float64(workers)))
	switch {
	case est < minRetryAfter:
		return minRetryAfter
	case est > maxRetryAfter:
		return maxRetryAfter
	}
	// Round up so the client never retries marginally too early.
	return (est + time.Second - 1).Truncate(time.Second)
}

// RetryAfter returns the current admission-control backoff hint (what
// the HTTP layer sends as Retry-After with a 429).
func (m *Manager) RetryAfter() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return RetryAfterHint(m.avgServiceNs, m.queuedN, m.cfg.Workers)
}

// finishLocked transitions a record into a terminal state (closing its
// done channel exactly once), updates the outcome counters and prunes
// old finished records beyond the retention bound. Caller holds m.mu.
func (m *Manager) finishLocked(rec *record, state State, res *Result, errMsg string) {
	rec.state = state
	rec.result = res
	rec.err = errMsg
	if state != StateCanceled {
		// A cancel request that lost the race to completion is moot; the
		// flag only means "cancellation still pending" while running.
		rec.cancelRequested = false
	}
	rec.finished = time.Now()
	if !rec.started.IsZero() {
		// Fold the observed service time into the moving average (jobs
		// canceled while still queued never started and carry no signal).
		dur := float64(rec.finished.Sub(rec.started))
		if m.avgServiceNs == 0 {
			m.avgServiceNs = dur
		} else {
			const alpha = 0.2
			m.avgServiceNs += alpha * (dur - m.avgServiceNs)
		}
	}
	rec.cancel() // release the context's resources
	close(rec.done)
	switch state {
	case StateSucceeded:
		m.stats.Succeeded++
		if rec.spec.Refine {
			m.stats.Refined++
		}
	case StateFailed:
		m.stats.Failed++
	case StateCanceled:
		m.stats.Canceled++
	}
	m.finished = append(m.finished, rec)
	for len(m.finished) > m.cfg.MaxRecords {
		old := m.finished[0]
		m.finished = m.finished[1:]
		delete(m.records, old.id)
	}
}

// abortGrace bounds how long an aborted Shutdown waits for workers to
// observe their canceled contexts. Cancellation is cooperative: a
// worker stuck inside a non-cancelable stage (e.g. a plan fetch waiting
// for its system's tuner training to finish) cannot react until that call
// returns, and Shutdown must not be held hostage by it.
const abortGrace = 2 * time.Second

// Shutdown stops admission and drains: workers finish their running
// jobs and keep working the queue until it is empty, and active
// pipelines keep admitting their remaining waves until they complete
// (the worker pool stays up for them). If ctx expires first, remaining
// queued jobs are canceled, running jobs' contexts are canceled (they
// finish canceled at their next cancellation point), active pipelines
// are canceled (their unstarted waves are skipped), and ctx's error is
// returned once the workers and drivers exit or an abortGrace period
// passes — a worker blocked in a non-cancelable call then finishes (and
// records its job's outcome) in the background.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	m.closed = true
	m.cond.Broadcast()
	m.mu.Unlock()

	done := make(chan struct{})
	go func() {
		m.pwg.Wait()
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
	}

	m.mu.Lock()
	m.abort = true
	for pri := range m.queues {
		for _, rec := range m.queues[pri] {
			m.queuedN--
			rec.cancelRequested = true
			m.finishLocked(rec, StateCanceled, nil, "")
		}
		m.queues[pri] = nil
	}
	for _, rec := range m.records {
		if rec.state == StateRunning {
			rec.cancelRequested = true
			rec.cancel()
		}
	}
	// Pipelines observe the abort at their next barrier (or wave
	// submission); their running wave's jobs were just canceled above.
	for _, p := range m.pipes {
		if !p.state.Finished() {
			p.cancelRequested = true
		}
	}
	m.cond.Broadcast()
	m.spaceCond.Broadcast()
	m.mu.Unlock()
	select {
	case <-done:
	case <-time.After(abortGrace):
	}
	return ctx.Err()
}

// worker is the pool loop: pop the next job, run it, repeat until the
// manager shuts down and the queue is drained (or aborted).
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		rec := m.next()
		if rec == nil {
			return
		}
		m.run(rec)
	}
}

// next blocks until a job is available and marks it running. It returns
// nil when the manager is closed and the queue is empty, or immediately
// on abort.
func (m *Manager) next() *record {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		if m.abort {
			return nil
		}
		for _, pri := range popOrder {
			if q := m.queues[pri]; len(q) > 0 {
				rec := q[0]
				m.queues[pri] = q[1:]
				m.queuedN--
				m.spaceCond.Broadcast()
				rec.state = StateRunning
				rec.started = time.Now()
				m.running++
				if m.cfg.Metrics != nil {
					observe(m.cfg.Metrics.QueueWaitSec, rec.started.Sub(rec.created))
				}
				return rec
			}
		}
		// A graceful drain must outlive pipelines between waves: their
		// queue is momentarily empty, but the driver is about to admit
		// the next wave, so workers only retire once no pipeline is
		// active (pipeline completion broadcasts cond).
		if m.closed && m.activePipes == 0 {
			return nil
		}
		m.cond.Wait()
	}
}

// run executes one job and records its outcome. When slow-job logging
// is on, the execution is wrapped in a job.execute span whose children
// (plan fetch, engine measure, refinement) are opened inside execute
// and jobs exceeding the SlowJob threshold log the whole tree; with it
// off the spans are no-ops, keeping the throughput path allocation-free.
func (m *Manager) run(rec *record) {
	startSpan := telemetry.StartSpan
	if m.cfg.SlowJob > 0 {
		startSpan = telemetry.StartRootSpan
	}
	ctx, span := startSpan(rec.ctx, "job.execute")
	if span != nil {
		span.Annotate("job_id", rec.id).
			Annotate("system", rec.spec.System).
			Annotate("priority", rec.spec.Priority)
		if rec.spec.RequestID != "" {
			span.Annotate("request_id", rec.spec.RequestID)
		}
	}
	t0 := time.Now()
	res, err := m.execute(ctx, rec)
	span.End()
	execDur := time.Since(t0)

	msg, attrs := "", []any{"job_id", rec.id}
	m.mu.Lock()
	m.running--
	if m.cfg.Metrics != nil {
		observe(m.cfg.Metrics.ExecSec, execDur)
	}
	switch {
	case err == nil:
		// A completed execution wins over a cancellation that raced in
		// after the work (and its side effects, e.g. the training-log
		// append) already happened: cancel is best-effort.
		m.finishLocked(rec, StateSucceeded, res, "")
		msg = "job succeeded"
		attrs = append(attrs, "params", res.Par.String(), "measured_s", res.MeasuredNs/1e9, "cache", res.Cache)
	case rec.ctx.Err() != nil:
		// The context is only ever canceled by Cancel or an aborted
		// drain, so an error with a done context means the execution was
		// cut short deliberately. Keep any unrelated failure visible in
		// the log — it may be persistent and matter beyond this job.
		m.finishLocked(rec, StateCanceled, nil, "")
		msg = "job canceled while running"
		if !errors.Is(err, context.Canceled) {
			attrs = append(attrs, "err", err)
		}
	default:
		m.finishLocked(rec, StateFailed, nil, err.Error())
		msg = "job failed"
		attrs = append(attrs, "err", err)
	}
	m.mu.Unlock()
	m.cfg.Logger.Info(msg, attrs...)
	if m.cfg.SlowJob > 0 && execDur >= m.cfg.SlowJob {
		m.cfg.Logger.Info("job slow", "job_id", rec.id, "dur", execDur,
			"threshold", m.cfg.SlowJob, "spans", span.Render())
	}
}

// measure runs one modeled engine execution inside an engine.measure
// span on ctx's span tree, annotated with the executed shape and
// schedule (serial vs hybrid, modeled time, step count), and feeds its
// duration to the EngineSec histogram (when configured).
func (m *Manager) measure(ctx context.Context, sys hw.System, inst plan.Instance, serial bool, par plan.Params) (float64, int, error) {
	_, span := telemetry.StartSpan(ctx, "engine.measure")
	if span != nil {
		rows, cols := inst.Shape()
		span.Annotate("system", sys.Name).
			Annotate("shape", fmt.Sprintf("%dx%d", rows, cols)).
			Annotate("serial", serial)
	}
	t0 := time.Now()
	ns, steps, err := engine.MeasureStepsNs(sys, inst, serial, par)
	if m.cfg.Metrics != nil {
		observe(m.cfg.Metrics.EngineSec, time.Since(t0))
	}
	if span != nil {
		if err == nil {
			span.Annotate("modeled_ns", fmt.Sprintf("%.0f", ns)).Annotate("steps", steps)
		} else {
			span.Annotate("error", err)
		}
		span.End()
	}
	return ns, steps, err
}

// execute runs the job body: fetch the tuned plan, optionally refine it
// online, and measure the execution on the modeled system. The record's
// context is checked between stages (and, during refinement, between
// probes) for cooperative cancellation; ctx additionally carries the
// job.execute span the stages below attach to.
func (m *Manager) execute(ctx context.Context, rec *record) (*Result, error) {
	spec := rec.spec
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	_, fetchSpan := telemetry.StartSpan(ctx, "plan.fetch")
	p, outcome, err := m.cfg.Plans(spec.System, spec.Inst)
	fetchSpan.Annotate("outcome", outcome).End()
	if err != nil {
		return nil, fmt.Errorf("fetching plan: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res := &Result{
		Serial: p.Serial, Par: p.Par, Cache: outcome.String(),
		PredictedNs: p.RTimeNs, SerialNs: p.SerialNs,
	}
	sys := m.systems[spec.System]

	if !spec.Refine {
		ns, steps, err := m.measure(ctx, sys, spec.Inst, p.Serial, p.Par)
		if err != nil {
			return nil, fmt.Errorf("executing: %w", err)
		}
		res.MeasuredNs = ns
		res.Steps = steps
		return res, nil
	}

	tuner, err := m.cfg.Tuners(spec.System)
	if err != nil {
		return nil, fmt.Errorf("resolving tuner: %w", err)
	}
	online := core.NewOnlineTuner(tuner)
	// Refine the cached decision itself (no second offline predict), so
	// the reported Cache/PredictedNs always describe the configuration
	// the refinement actually started from.
	refineCtx, refineSpan := telemetry.StartSpan(ctx, "job.refine")
	pred, st, err := online.RefineDecisionContext(refineCtx, spec.Inst,
		core.Prediction{Serial: p.Serial, Par: p.Par}, p.SerialNs)
	refineSpan.End()
	if err != nil {
		return nil, fmt.Errorf("refining: %w", err)
	}
	refineSpan.Annotate("probes", st.Probes)
	res.Serial, res.Par = pred.Serial, pred.Par
	res.MeasuredNs = st.FinalNs
	res.Refine = &st
	// Step accounting for the refined configuration; the measured time
	// stays the refinement's own, only the schedule's step count is
	// taken (a failure leaves Steps 0 = unknown rather than failing a
	// job that already measured successfully).
	if _, steps, serr := m.measure(ctx, sys, spec.Inst, pred.Serial, pred.Par); serr == nil {
		res.Steps = steps
	}

	// Feedback: persist the measured configuration for retraining.
	// Serial outcomes are skipped — the baseline is not a search point,
	// so logging it would mislabel the training row.
	if m.cfg.TrainingLog != nil && !pred.Serial {
		obs := core.Observation{Inst: spec.Inst, Par: pred.Par, RTimeNs: st.FinalNs, App: spec.App}
		if lerr := m.cfg.TrainingLog.Append(spec.System, obs); lerr != nil {
			m.cfg.Logger.Error("training-log append failed", "job_id", rec.id, "err", lerr)
		} else {
			m.mu.Lock()
			m.stats.TrainingRows++
			m.mu.Unlock()
			if m.cfg.OnObservation != nil {
				m.cfg.OnObservation(spec.System)
			}
		}
	}
	return res, nil
}
