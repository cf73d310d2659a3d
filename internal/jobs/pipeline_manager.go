package jobs

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/telemetry"
)

// pipelineRecord is one pipeline's mutable state. All fields except the
// immutable id/spec are guarded by the manager's mutex; done closes
// exactly when the record reaches a terminal state.
type pipelineRecord struct {
	id   string
	spec PipelineSpec
	done chan struct{}

	state           PipelineState
	waveIdx         int
	cancelRequested bool
	err             string
	created         time.Time
	started         time.Time
	finished        time.Time
	waves           []*waveRecord
}

// waveRecord tracks one wave's attempts. Guarded by the manager's
// mutex.
type waveRecord struct {
	state       WaveState
	retriesUsed int
	failed      int
	// jobIDs lists every attempt in submission order; jobs holds the
	// matching records of the current round, so cancellation can reach
	// them without a map lookup.
	jobIDs []string
	jobs   []*record
}

// applyLocked drives the record through the state machine; an illegal
// transition is a scheduler bug, not an input error, so it panics.
// Caller holds the manager's mutex.
func (p *pipelineRecord) applyLocked(e PipelineEvent) {
	next, ok := PipelineTransition(p.state, e)
	if !ok {
		panic(fmt.Sprintf("jobs: illegal pipeline transition %v --%v-->", p.state, e))
	}
	p.state = next
}

// snapshot copies the record into an immutable Pipeline. Caller holds
// the manager's mutex.
func (p *pipelineRecord) snapshot() Pipeline {
	snap := Pipeline{
		ID: p.id, Name: p.spec.Name, State: p.state, Wave: p.waveIdx,
		CancelRequested: p.cancelRequested, Err: p.err,
		Created: p.created, Started: p.started, Finished: p.finished,
		Waves:     make([]PipelineWave, len(p.waves)),
		RequestID: p.spec.RequestID,
	}
	for i, w := range p.waves {
		ws := p.spec.Waves[i]
		snap.Waves[i] = PipelineWave{
			Name: ws.Name, State: w.state,
			Policy: ws.Policy, RetryBudget: ws.RetryBudget,
			RetriesUsed: w.retriesUsed, Failed: w.failed,
			JobIDs: append([]string(nil), w.jobIDs...),
		}
	}
	return snap
}

// SubmitPipeline validates spec and admits it. The returned snapshot is
// taken before the driver can admit the first wave, so its state is
// always PipeQueued. ErrQueueFull reports too many active pipelines;
// ErrClosed a manager already shutting down; any other error a
// malformed spec that never entered the system.
func (m *Manager) SubmitPipeline(spec PipelineSpec) (Pipeline, error) {
	norm, err := m.validatePipeline(spec)
	if err != nil {
		return Pipeline{}, err
	}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return Pipeline{}, ErrClosed
	}
	if m.activePipes >= m.cfg.MaxPipelines {
		m.pstats.Rejected++
		m.mu.Unlock()
		return Pipeline{}, ErrQueueFull
	}
	m.startLocked()
	m.pipeSeq++
	p := &pipelineRecord{
		id: fmt.Sprintf("pipe-%08d", m.pipeSeq), spec: norm,
		done: make(chan struct{}), state: PipeQueued, created: time.Now(),
		waves: make([]*waveRecord, len(norm.Waves)),
	}
	for i := range p.waves {
		p.waves[i] = &waveRecord{state: WavePending}
	}
	m.pipes[p.id] = p
	m.activePipes++
	m.pstats.Submitted++
	snap := p.snapshot()
	m.pwg.Add(1)
	go m.runPipeline(p)
	m.mu.Unlock()
	m.cfg.Logger.Info("pipeline queued", "pipeline_id", p.id, "name", norm.Name, "waves", len(norm.Waves))
	return snap, nil
}

// GetPipeline returns a snapshot of the pipeline with the given ID.
func (m *Manager) GetPipeline(id string) (Pipeline, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	p, ok := m.pipes[id]
	if !ok {
		return Pipeline{}, false
	}
	return p.snapshot(), true
}

// AwaitPipeline blocks until the pipeline reaches a terminal state (or
// ctx is done) and returns its final snapshot.
func (m *Manager) AwaitPipeline(ctx context.Context, id string) (Pipeline, error) {
	m.mu.Lock()
	p, ok := m.pipes[id]
	m.mu.Unlock()
	if !ok {
		return Pipeline{}, ErrNotFound
	}
	select {
	case <-p.done:
	case <-ctx.Done():
		return Pipeline{}, ctx.Err()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return p.snapshot(), nil
}

// ListPipelines returns snapshots of the retained pipelines matching f,
// in submission order.
func (m *Manager) ListPipelines(f PipelineFilter) []Pipeline {
	m.mu.Lock()
	out := make([]Pipeline, 0, len(m.pipes))
	for _, p := range m.pipes {
		if f.State != nil && p.state != *f.State {
			continue
		}
		out = append(out, p.snapshot())
	}
	m.mu.Unlock()
	// IDs are zero-padded sequence numbers, so lexicographic order is
	// submission order. The sort runs on the copy, off the lock.
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// CancelPipeline cancels a pipeline: the running wave's unfinished jobs
// are canceled cooperatively, unstarted waves are skipped, and the
// pipeline finishes PipeCanceled once the driver observes the request
// (the returned snapshot may still report a non-terminal state with
// CancelRequested set). Canceling an already finished pipeline returns
// its snapshot with ErrFinished.
func (m *Manager) CancelPipeline(id string) (Pipeline, error) {
	m.mu.Lock()
	p, ok := m.pipes[id]
	if !ok {
		m.mu.Unlock()
		return Pipeline{}, ErrNotFound
	}
	if p.state.Finished() {
		snap := p.snapshot()
		m.mu.Unlock()
		return snap, ErrFinished
	}
	p.cancelRequested = true
	if p.state == PipeWaveRunning {
		for _, rec := range p.waves[p.waveIdx].jobs {
			if !rec.state.Finished() {
				m.cancelRecordLocked(rec)
			}
		}
	}
	// Wake a driver waiting for queue space; it re-checks the request.
	m.spaceCond.Broadcast()
	snap := p.snapshot()
	m.mu.Unlock()
	m.cfg.Logger.Info("pipeline cancel", "pipeline_id", p.id, "state", snap.State.String())
	return snap, nil
}

// PrunePipelines drops every finished pipeline record and returns how
// many were removed. The wave jobs' own records remain subject to the
// ordinary job retention bound.
func (m *Manager) PrunePipelines() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := len(m.pipeFinished)
	for _, p := range m.pipeFinished {
		delete(m.pipes, p.id)
	}
	m.pipeFinished = m.pipeFinished[:0]
	return n
}

// PipelineStats returns a snapshot of the pipeline counters.
func (m *Manager) PipelineStats() PipelineStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.pstats
	s.Active = m.activePipes
	s.MaxActive = m.cfg.MaxPipelines
	return s
}

// finishPipelineLocked transitions a pipeline into a terminal state via
// e (closing its done channel exactly once), marks unstarted waves
// skipped, updates the counters and prunes old finished records beyond
// the retention bound. Caller holds m.mu.
func (m *Manager) finishPipelineLocked(p *pipelineRecord, e PipelineEvent, errMsg string) {
	p.applyLocked(e)
	p.err = errMsg
	p.finished = time.Now()
	for _, w := range p.waves {
		if w.state == WavePending {
			w.state = WaveSkipped
		}
	}
	close(p.done)
	switch p.state {
	case PipeSucceeded:
		m.pstats.Succeeded++
	case PipeFailed:
		m.pstats.Failed++
	case PipeCanceled:
		m.pstats.Canceled++
	}
	m.activePipes--
	m.pipeFinished = append(m.pipeFinished, p)
	for len(m.pipeFinished) > m.cfg.MaxRecords {
		old := m.pipeFinished[0]
		m.pipeFinished = m.pipeFinished[1:]
		delete(m.pipes, old.id)
	}
	if m.closed && m.activePipes == 0 {
		// The last drain obstacle is gone; idle workers may retire.
		m.cond.Broadcast()
	}
}

// runPipeline is the driver goroutine: admit each wave in order, wait
// at its barrier, apply the failure policy, and record the terminal
// outcome. Cancellation is observed at every barrier and before every
// wave admission.
func (m *Manager) runPipeline(p *pipelineRecord) {
	defer m.pwg.Done()
	// The pipeline's span tree: one pipeline.run root with a
	// pipeline.wave child per barrier interval. Wave durations (queue-
	// space wait + execution + barrier) feed the WaveSec histogram; a
	// pipeline outliving the SlowJob threshold logs the whole tree. The
	// tree only materializes when SlowJob is set — nothing else reads
	// it, so with slow-job logging off the spans stay nil no-ops.
	startSpan := telemetry.StartSpan
	if m.cfg.SlowJob > 0 {
		startSpan = telemetry.StartRootSpan
	}
	spanCtx, pipeSpan := startSpan(context.Background(), "pipeline.run")
	if pipeSpan != nil {
		pipeSpan.Annotate("pipeline_id", p.id).Annotate("name", p.spec.Name)
		if p.spec.RequestID != "" {
			pipeSpan.Annotate("request_id", p.spec.RequestID)
		}
	}
	t0 := time.Now()
	defer func() {
		pipeSpan.End()
		if dur := time.Since(t0); m.cfg.SlowJob > 0 && dur >= m.cfg.SlowJob {
			m.cfg.Logger.Info("pipeline slow", "pipeline_id", p.id, "dur", dur,
				"threshold", m.cfg.SlowJob, "spans", pipeSpan.Render())
		}
	}()
	for wi := range p.spec.Waves {
		m.mu.Lock()
		if p.cancelRequested || m.abort {
			m.finishPipelineLocked(p, PipeEvCancel, "")
			m.mu.Unlock()
			m.cfg.Logger.Info("pipeline canceled before wave", "pipeline_id", p.id, "wave", wi)
			return
		}
		p.waveIdx = wi
		p.applyLocked(PipeEvAdmit)
		if wi == 0 {
			p.started = time.Now()
		}
		p.waves[wi].state = WaveRunning
		m.mu.Unlock()
		m.cfg.Logger.Info("pipeline wave", "pipeline_id", p.id, "wave", wi, "waves", len(p.spec.Waves),
			"name", p.spec.Waves[wi].Name, "jobs", len(p.spec.Waves[wi].Jobs))

		_, waveSpan := telemetry.StartSpan(spanCtx, "pipeline.wave")
		waveSpan.Annotate("wave", p.spec.Waves[wi].Name).
			Annotate("jobs", len(p.spec.Waves[wi].Jobs))
		wt := time.Now()
		ok, errMsg := m.runWave(p, wi)
		waveSpan.End()
		if m.cfg.Metrics != nil {
			observe(m.cfg.Metrics.WaveSec, time.Since(wt))
		}

		m.mu.Lock()
		if p.cancelRequested || m.abort {
			p.waves[wi].state = WaveCanceled
			m.finishPipelineLocked(p, PipeEvCancel, "")
			m.mu.Unlock()
			m.cfg.Logger.Info("pipeline canceled during wave", "pipeline_id", p.id, "wave", wi)
			return
		}
		if !ok {
			p.waves[wi].state = WaveFailed
			m.finishPipelineLocked(p, PipeEvWaveFailed,
				fmt.Sprintf("wave %d (%s): %s", wi, p.spec.Waves[wi].Name, errMsg))
			m.mu.Unlock()
			m.cfg.Logger.Info("pipeline failed", "pipeline_id", p.id, "wave", wi, "err", errMsg)
			return
		}
		p.waves[wi].state = WaveResolved
		p.applyLocked(PipeEvWaveResolved)
		m.pstats.WavesResolved++
		m.mu.Unlock()
	}
	m.mu.Lock()
	if p.cancelRequested || m.abort {
		// The cancel landed exactly on the last barrier: honor it —
		// terminal means what the caller was told.
		m.finishPipelineLocked(p, PipeEvCancel, "")
		m.mu.Unlock()
		m.cfg.Logger.Info("pipeline canceled at the final barrier", "pipeline_id", p.id)
		return
	}
	m.finishPipelineLocked(p, PipeEvFinish, "")
	m.mu.Unlock()
	m.cfg.Logger.Info("pipeline succeeded", "pipeline_id", p.id)
}

// runWave submits one wave's jobs, waits for all of them at the
// barrier, and applies the failure policy (retry rounds included). It
// reports whether the wave resolved; on false, errMsg explains the
// failure. A pipeline cancellation or manager abort surfaces as
// (false, "") — the caller checks the flags itself.
func (m *Manager) runWave(p *pipelineRecord, wi int) (bool, string) {
	wave := p.spec.Waves[wi]
	wr := p.waves[wi]
	round := wave.Jobs
	for {
		recs, err := m.submitWaveRound(p, wr, round)
		if err != nil {
			return false, err.Error()
		}
		// The barrier: every attempt of this round must reach a terminal
		// state. Jobs canceled or aborted away still close done, so the
		// wait cannot wedge.
		for _, rec := range recs {
			<-rec.done
		}

		m.mu.Lock()
		canceled := p.cancelRequested || m.abort
		var failedJobs []PipelineJob
		var firstErr string
		for i, rec := range recs {
			if rec.state != StateSucceeded {
				failedJobs = append(failedJobs, round[i])
				if firstErr == "" {
					firstErr = fmt.Sprintf("job %q (%s) %s", round[i].Name, rec.id, rec.state)
					if rec.err != "" {
						firstErr += ": " + rec.err
					}
				}
			}
		}
		wr.failed = len(failedJobs)
		m.mu.Unlock()

		switch {
		case canceled:
			return false, ""
		case len(failedJobs) == 0:
			return true, ""
		}
		switch wave.Policy {
		case PolicyContinue:
			// The wave resolves with its failures on record.
			return true, ""
		case PolicyRetry:
			m.mu.Lock()
			budgetLeft := wave.RetryBudget - wr.retriesUsed
			retrying := budgetLeft >= len(failedJobs)
			if retrying {
				wr.retriesUsed += len(failedJobs)
				m.pstats.JobRetries += uint64(len(failedJobs))
			}
			m.mu.Unlock()
			if !retrying {
				return false, fmt.Sprintf("retry budget exhausted (%d/%d used, %d job(s) still failing; first: %s)",
					wr.retriesUsed, wave.RetryBudget, len(failedJobs), firstErr)
			}
			m.cfg.Logger.Info("pipeline wave retry", "pipeline_id", p.id, "wave", wi, "jobs", len(failedJobs))
			round = failedJobs
		default: // PolicyAbort
			return false, fmt.Sprintf("%d of %d job(s) did not succeed (first: %s)",
				len(failedJobs), len(recs), firstErr)
		}
	}
}

// submitWaveRound admits one round of wave jobs into the ordinary
// queue, waiting for queue space as needed (a wave never exceeds the
// queue depth by validation, but concurrent pipelines and direct
// submissions share the slots). Unlike Submit it runs during a graceful
// drain — a closed manager still owes its admitted pipelines their
// remaining waves — but not past an abort. The returned records align
// index-for-index with round.
func (m *Manager) submitWaveRound(p *pipelineRecord, wr *waveRecord, round []PipelineJob) ([]*record, error) {
	recs := make([]*record, 0, len(round))
	m.mu.Lock()
	// Fresh round, fresh cancellation targets: completed attempts of
	// earlier rounds no longer need cancel reach.
	wr.jobs = wr.jobs[:0]
	for _, pj := range round {
		for m.queuedN >= m.cfg.QueueDepth {
			if m.abort || p.cancelRequested {
				m.mu.Unlock()
				return nil, ErrClosed
			}
			m.spaceCond.Wait()
		}
		if m.abort {
			m.mu.Unlock()
			return nil, ErrClosed
		}
		if p.cancelRequested {
			// Stop admitting; already submitted attempts of this round
			// were canceled by CancelPipeline (or will finish on their
			// own) and the caller re-checks the flag after the barrier.
			m.mu.Unlock()
			return recs, nil
		}
		rec := m.enqueueLocked(pj.Spec)
		wr.jobIDs = append(wr.jobIDs, rec.id)
		wr.jobs = append(wr.jobs, rec)
		recs = append(recs, rec)
	}
	m.mu.Unlock()
	return recs, nil
}
