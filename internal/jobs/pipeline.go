package jobs

// Wave-DAG job pipelines: real workloads chain wavefront sweeps — align
// a query against N references, then fold the best hits — so the
// manager groups job specs into ordered waves. Jobs within a wave run
// in parallel through the ordinary worker pool; wave N+1 is admitted
// only after wave N resolves at a sequential barrier, under a per-wave
// failure policy (abort / continue / retry-budget). The pipeline
// lifecycle is an explicit, exhaustively tested state machine
// (PipelineTransition): queued → wave-running ⇄ wave-barrier →
// succeeded/failed/canceled.

import (
	"errors"
	"fmt"
	"time"
)

// FailurePolicy decides how a wave resolves when some of its jobs do
// not succeed.
type FailurePolicy int

const (
	// PolicyAbort (the default) fails the wave — and the pipeline — on
	// the first non-succeeded job; later waves are skipped.
	PolicyAbort FailurePolicy = iota
	// PolicyContinue resolves the wave regardless of job outcomes; the
	// failure count is recorded and the next wave is admitted.
	PolicyContinue
	// PolicyRetry resubmits failed jobs until the wave's retry budget is
	// exhausted, then aborts like PolicyAbort.
	PolicyRetry
	numFailurePolicies
)

// String implements fmt.Stringer.
func (p FailurePolicy) String() string {
	switch p {
	case PolicyAbort:
		return "abort"
	case PolicyContinue:
		return "continue"
	case PolicyRetry:
		return "retry"
	}
	return "policy(?)"
}

// ParseFailurePolicy inverts String; the empty string selects
// PolicyAbort.
func ParseFailurePolicy(s string) (FailurePolicy, error) {
	switch s {
	case "", "abort":
		return PolicyAbort, nil
	case "continue":
		return PolicyContinue, nil
	case "retry":
		return PolicyRetry, nil
	}
	return PolicyAbort, errors.New("jobs: unknown failure policy " + s + " (want abort, continue or retry)")
}

// PipelineJob is one job of a wave: an ordinary Spec plus a name that
// is unique across the pipeline.
type PipelineJob struct {
	// Name identifies the job within the pipeline; empty defaults to
	// "w<wave>.j<index>". Duplicates are rejected.
	Name string
	// Spec is the job submission, exactly as for Submit.
	Spec Spec
}

// WaveSpec is one wave of a pipeline: jobs that run in parallel between
// two sequential barriers.
type WaveSpec struct {
	// Name identifies the wave; empty defaults to "wave-<index>".
	// Duplicates are rejected.
	Name string
	// After names waves this one depends on. Waves execute in
	// declaration order, so every dependency must resolve strictly
	// earlier: a reference to the wave itself, a later wave or an
	// unknown name is a cycle (or an impossible ordering) and is
	// rejected at validation.
	After []string
	// Policy decides how the wave resolves when jobs fail; the zero
	// value is PolicyAbort.
	Policy FailurePolicy
	// RetryBudget caps resubmissions of failed jobs for PolicyRetry
	// (total across the wave, not per job). It must be zero for the
	// other policies and positive for PolicyRetry.
	RetryBudget int
	// Jobs are the wave's parallel submissions (at least one; at most
	// the manager's queue depth, so a single wave can always fit the
	// queue).
	Jobs []PipelineJob
}

// PipelineSpec describes a submitted pipeline: ordered waves of job
// specs.
type PipelineSpec struct {
	// Name labels the pipeline (informational; shows up in logs and
	// snapshots).
	Name string
	// Waves execute sequentially in declaration order.
	Waves []WaveSpec
	// RequestID carries the HTTP request ID that submitted the
	// pipeline; it is stamped onto every wave job spec that does not
	// already carry its own, so each executed job links back to the
	// originating request. Informational; may be empty.
	RequestID string
}

// MaxPipelineWaves bounds the waves of one pipeline; a longer chain is
// almost certainly a generation bug, and each wave costs a barrier.
const MaxPipelineWaves = 64

// PipelineState is a pipeline's lifecycle state.
type PipelineState int

const (
	// PipeQueued: admitted, no wave started yet.
	PipeQueued PipelineState = iota
	// PipeWaveRunning: the current wave's jobs are queued or running.
	PipeWaveRunning
	// PipeWaveBarrier: the current wave resolved; the next wave (or
	// completion) is pending.
	PipeWaveBarrier
	// PipeSucceeded: every wave resolved.
	PipeSucceeded
	// PipeFailed: a wave failed under its policy.
	PipeFailed
	// PipeCanceled: canceled before completion (explicitly, or by an
	// aborted shutdown drain).
	PipeCanceled
	numPipelineStates
)

// String implements fmt.Stringer.
func (s PipelineState) String() string {
	switch s {
	case PipeQueued:
		return "queued"
	case PipeWaveRunning:
		return "wave-running"
	case PipeWaveBarrier:
		return "wave-barrier"
	case PipeSucceeded:
		return "succeeded"
	case PipeFailed:
		return "failed"
	case PipeCanceled:
		return "canceled"
	}
	return "state(?)"
}

// Finished reports whether the state is terminal.
func (s PipelineState) Finished() bool {
	return s == PipeSucceeded || s == PipeFailed || s == PipeCanceled
}

// ParsePipelineState inverts PipelineState.String (for list filters).
func ParsePipelineState(s string) (PipelineState, error) {
	for st := PipeQueued; st < numPipelineStates; st++ {
		if st.String() == s {
			return st, nil
		}
	}
	return 0, errors.New("jobs: unknown pipeline state " + s)
}

// PipelineEvent drives the pipeline state machine.
type PipelineEvent int

const (
	// PipeEvAdmit admits the next wave (from queued or a barrier).
	PipeEvAdmit PipelineEvent = iota
	// PipeEvWaveResolved reports the running wave resolved under its
	// policy.
	PipeEvWaveResolved
	// PipeEvWaveFailed reports the running wave failed under its policy.
	PipeEvWaveFailed
	// PipeEvFinish completes the pipeline once the last barrier has no
	// wave left to admit.
	PipeEvFinish
	// PipeEvCancel cancels the pipeline from any non-terminal state.
	PipeEvCancel
	numPipelineEvents
)

// String implements fmt.Stringer.
func (e PipelineEvent) String() string {
	switch e {
	case PipeEvAdmit:
		return "admit"
	case PipeEvWaveResolved:
		return "wave-resolved"
	case PipeEvWaveFailed:
		return "wave-failed"
	case PipeEvFinish:
		return "finish"
	case PipeEvCancel:
		return "cancel"
	}
	return "event(?)"
}

// PipelineTransition is the pipeline lifecycle state machine as a pure
// function: it returns the state after applying e in s and whether the
// transition is legal. Illegal transitions leave the state unchanged.
// Terminal states accept no event — terminal is terminal.
//
//	queued       --admit-->         wave-running
//	wave-running --wave-resolved--> wave-barrier
//	wave-running --wave-failed-->   failed
//	wave-barrier --admit-->         wave-running
//	wave-barrier --finish-->        succeeded
//	(any non-terminal) --cancel-->  canceled
func PipelineTransition(s PipelineState, e PipelineEvent) (PipelineState, bool) {
	switch e {
	case PipeEvAdmit:
		if s == PipeQueued || s == PipeWaveBarrier {
			return PipeWaveRunning, true
		}
	case PipeEvWaveResolved:
		if s == PipeWaveRunning {
			return PipeWaveBarrier, true
		}
	case PipeEvWaveFailed:
		if s == PipeWaveRunning {
			return PipeFailed, true
		}
	case PipeEvFinish:
		if s == PipeWaveBarrier {
			return PipeSucceeded, true
		}
	case PipeEvCancel:
		if !s.Finished() {
			return PipeCanceled, true
		}
	}
	return s, false
}

// WaveState is one wave's lifecycle within a pipeline snapshot.
type WaveState int

const (
	// WavePending: not yet admitted.
	WavePending WaveState = iota
	// WaveRunning: admitted; jobs queued or running.
	WaveRunning
	// WaveResolved: every job accounted for and the policy satisfied.
	WaveResolved
	// WaveFailed: the policy declared the wave failed.
	WaveFailed
	// WaveCanceled: the pipeline was canceled while this wave ran.
	WaveCanceled
	// WaveSkipped: the pipeline ended before this wave was admitted.
	WaveSkipped
)

// String implements fmt.Stringer.
func (s WaveState) String() string {
	switch s {
	case WavePending:
		return "pending"
	case WaveRunning:
		return "running"
	case WaveResolved:
		return "resolved"
	case WaveFailed:
		return "failed"
	case WaveCanceled:
		return "canceled"
	case WaveSkipped:
		return "skipped"
	}
	return "wave(?)"
}

// PipelineWave is the immutable snapshot of one wave's record.
type PipelineWave struct {
	// Name is the (defaulted) wave name from the spec.
	Name string
	// State is the wave's lifecycle state.
	State WaveState
	// Policy and RetryBudget echo the spec; RetriesUsed counts
	// resubmissions actually spent.
	Policy      FailurePolicy
	RetryBudget int
	RetriesUsed int
	// JobIDs lists every attempt submitted for this wave in submission
	// order (original jobs first, then retry rounds); each ID is an
	// ordinary job record retrievable via Get.
	JobIDs []string
	// Failed counts the attempts that ended non-succeeded when the wave
	// resolved (only PolicyContinue resolves with Failed > 0).
	Failed int
}

// Pipeline is an immutable snapshot of one pipeline record.
type Pipeline struct {
	ID string
	// Name echoes the spec's label.
	Name string
	// State is the lifecycle state; Wave the index of the current (or
	// last admitted) wave.
	State PipelineState
	Wave  int
	// CancelRequested is set once CancelPipeline was called; the
	// pipeline stays in its current state until the driver observes the
	// cancellation.
	CancelRequested bool
	// Err holds the failure message for PipeFailed pipelines.
	Err string
	// Created, Started and Finished stamp the lifecycle transitions
	// (zero until reached); Started is the admission of the first wave.
	Created, Started, Finished time.Time
	// Waves are the per-wave records, one per spec wave.
	Waves []PipelineWave
	// RequestID echoes the spec's originating HTTP request ID (may be
	// empty).
	RequestID string
}

// PipelineFilter selects pipelines in ListPipelines.
type PipelineFilter struct {
	// State, when non-nil, keeps only pipelines in that state.
	State *PipelineState
}

// PipelineStats is a snapshot of the manager's pipeline counters,
// merged into the daemon's GET /v1/stats.
type PipelineStats struct {
	// Submitted counts admitted pipelines; Rejected counts
	// admission-control rejections (too many active pipelines).
	Submitted uint64 `json:"submitted"`
	Rejected  uint64 `json:"rejected"`
	// Succeeded/Failed/Canceled count terminal outcomes.
	Succeeded uint64 `json:"succeeded"`
	Failed    uint64 `json:"failed"`
	Canceled  uint64 `json:"canceled"`
	// WavesResolved counts waves that passed their barrier; JobRetries
	// counts failed-job resubmissions spent by retry policies.
	WavesResolved uint64 `json:"waves_resolved"`
	JobRetries    uint64 `json:"job_retries"`
	// Active is the instantaneous non-terminal pipeline count;
	// MaxActive the configured admission bound.
	Active    int `json:"active"`
	MaxActive int `json:"max_active"`
}

// validatePipeline checks spec against the manager's configuration and
// returns a normalized deep copy: wave and job names defaulted, every
// instance validated and normalized, app-parameter maps detached from
// the caller. Every defect answers an error (the HTTP layer maps them
// to 400) — a malformed spec must never reach the queue.
func (m *Manager) validatePipeline(spec PipelineSpec) (PipelineSpec, error) {
	if len(spec.Waves) == 0 {
		return spec, fmt.Errorf("jobs: pipeline needs at least one wave")
	}
	if len(spec.Waves) > MaxPipelineWaves {
		return spec, fmt.Errorf("jobs: pipeline has %d waves; the limit is %d", len(spec.Waves), MaxPipelineWaves)
	}
	norm := PipelineSpec{Name: spec.Name, RequestID: spec.RequestID, Waves: make([]WaveSpec, len(spec.Waves))}
	waveIdx := make(map[string]int, len(spec.Waves))
	jobNames := make(map[string]string, 8)
	for wi, w := range spec.Waves {
		nw := w
		if nw.Name == "" {
			nw.Name = fmt.Sprintf("wave-%d", wi)
		}
		if prev, dup := waveIdx[nw.Name]; dup {
			return spec, fmt.Errorf("jobs: duplicate wave name %q (waves %d and %d)", nw.Name, prev, wi)
		}
		waveIdx[nw.Name] = wi
		if nw.Policy < 0 || nw.Policy >= numFailurePolicies {
			return spec, fmt.Errorf("jobs: wave %q: invalid failure policy %d", nw.Name, nw.Policy)
		}
		switch {
		case nw.RetryBudget < 0:
			return spec, fmt.Errorf("jobs: wave %q: negative retry budget", nw.Name)
		case nw.Policy == PolicyRetry && nw.RetryBudget == 0:
			return spec, fmt.Errorf("jobs: wave %q: retry policy needs a positive retry budget", nw.Name)
		case nw.Policy != PolicyRetry && nw.RetryBudget != 0:
			return spec, fmt.Errorf("jobs: wave %q: retry budget requires the retry policy", nw.Name)
		}
		// Waves run in declaration order, so a dependency satisfied by
		// that order must name a strictly earlier wave: a self, forward
		// or unknown reference can never resolve first — a cycle.
		nw.After = append([]string(nil), w.After...)
		for _, dep := range nw.After {
			di, known := waveIdx[dep]
			if !known || di >= wi {
				return spec, fmt.Errorf("jobs: wave %q: dependency %q does not name an earlier wave (cycle or unknown wave)", nw.Name, dep)
			}
		}
		if len(nw.Jobs) == 0 {
			return spec, fmt.Errorf("jobs: wave %q has no jobs", nw.Name)
		}
		if len(nw.Jobs) > m.cfg.QueueDepth {
			return spec, fmt.Errorf("jobs: wave %q has %d jobs; the queue depth is %d, so the wave can never be admitted whole",
				nw.Name, len(nw.Jobs), m.cfg.QueueDepth)
		}
		nw.Jobs = append([]PipelineJob(nil), w.Jobs...)
		for ji := range nw.Jobs {
			pj := &nw.Jobs[ji]
			if pj.Name == "" {
				pj.Name = fmt.Sprintf("w%d.j%d", wi, ji)
			}
			if prev, dup := jobNames[pj.Name]; dup {
				return spec, fmt.Errorf("jobs: duplicate job name %q (waves %q and %q)", pj.Name, prev, nw.Name)
			}
			jobNames[pj.Name] = nw.Name
			checked, err := m.checkSpec(pj.Spec)
			if err != nil {
				return spec, fmt.Errorf("jobs: job %q: %w", pj.Name, err)
			}
			pj.Spec = checked
			if pj.Spec.RequestID == "" {
				pj.Spec.RequestID = spec.RequestID
			}
		}
		norm.Waves[wi] = nw
	}
	return norm, nil
}
