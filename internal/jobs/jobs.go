// Package jobs is the asynchronous job execution subsystem behind the
// tuning daemon: where the /v1/tune endpoint answers "what plan should I
// use?", a job actually runs a tuned wavefront workload end-to-end as a
// service. A submitted job is admitted into a bounded priority queue,
// picked up by a bounded worker pool, resolved to a tuned plan through
// the plan cache, and executed against the modeled system (the engine's
// stand-in for timing a real run). Jobs that opt into refinement
// additionally run the paper's future-work runtime tuning
// (core.OnlineTuner) around the cached prediction and feed the measured
// outcome back into a persisted training log that wavetrain can fold
// into retraining — closing the predict → execute → measure → retrain
// loop.
//
// The manager tracks the full lifecycle (queued → running →
// succeeded/failed/canceled) with per-job records retrievable by ID,
// supports cooperative cancellation of queued and running jobs, rejects
// submissions beyond the queue bound (admission control), and drains
// gracefully on shutdown.
//
// Beyond independent jobs, the manager runs wave-DAG pipelines
// (SubmitPipeline): job specs grouped into ordered waves, where jobs
// within a wave run in parallel through the same worker pool and wave
// N+1 is admitted only after wave N resolves at a sequential barrier,
// under a per-wave failure policy (abort / continue / retry-budget).
// The pipeline lifecycle is the explicit state machine of
// PipelineTransition, with per-wave and per-job records.
package jobs

import (
	"errors"
	"log/slog"
	"time"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/plan"
	"repro/internal/telemetry"
	"repro/internal/tunecache"
)

// Errors returned by Submit and Cancel. The HTTP layer maps them to
// status codes (429, 503, 404, 409).
var (
	// ErrQueueFull rejects a submission when the queue bound is reached
	// (admission control; retry after a moment).
	ErrQueueFull = errors.New("jobs: queue full")
	// ErrClosed rejects submissions after Shutdown began.
	ErrClosed = errors.New("jobs: manager shut down")
	// ErrNotFound reports an unknown (or pruned) job ID.
	ErrNotFound = errors.New("jobs: no such job")
	// ErrFinished reports a cancellation of an already finished job.
	ErrFinished = errors.New("jobs: job already finished")
)

// Priority is a job's admission class. Workers always pick the highest
// non-empty class, FIFO within a class.
type Priority int

const (
	// PriorityNormal is the default class (the zero value).
	PriorityNormal Priority = iota
	// PriorityLow is for backfill work (bulk re-tuning sweeps).
	PriorityLow
	// PriorityHigh jumps the queue (interactive callers).
	PriorityHigh
	numPriorities
)

// popOrder is the order workers scan the priority classes.
var popOrder = [...]Priority{PriorityHigh, PriorityNormal, PriorityLow}

// String implements fmt.Stringer.
func (p Priority) String() string {
	switch p {
	case PriorityLow:
		return "low"
	case PriorityNormal:
		return "normal"
	case PriorityHigh:
		return "high"
	}
	return "priority(?)"
}

// ParsePriority inverts String; the empty string selects PriorityNormal.
func ParsePriority(s string) (Priority, error) {
	switch s {
	case "", "normal":
		return PriorityNormal, nil
	case "low":
		return PriorityLow, nil
	case "high":
		return PriorityHigh, nil
	}
	return PriorityNormal, errors.New("jobs: unknown priority " + s + " (want low, normal or high)")
}

// State is a job's lifecycle state.
type State int

const (
	// StateQueued: admitted, waiting for a worker.
	StateQueued State = iota
	// StateRunning: a worker is executing the job.
	StateRunning
	// StateSucceeded: finished with a Result.
	StateSucceeded
	// StateFailed: finished with an error.
	StateFailed
	// StateCanceled: canceled before or during execution.
	StateCanceled
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateSucceeded:
		return "succeeded"
	case StateFailed:
		return "failed"
	case StateCanceled:
		return "canceled"
	}
	return "state(?)"
}

// Finished reports whether the state is terminal.
func (s State) Finished() bool {
	return s == StateSucceeded || s == StateFailed || s == StateCanceled
}

// ParseState inverts State.String (for list filters).
func ParseState(s string) (State, error) {
	for st := StateQueued; st <= StateCanceled; st++ {
		if st.String() == s {
			return st, nil
		}
	}
	return 0, errors.New("jobs: unknown state " + s)
}

// Spec describes a submitted job.
type Spec struct {
	// System names the modeled platform to run on.
	System string
	// Inst is the wavefront instance to execute.
	Inst plan.Instance
	// App echoes the named catalog application the instance was derived
	// from (informational; granularity already lives in Inst). Refined
	// jobs stamp it into the training log's app column.
	App string
	// AppParams echoes the application parameters the submission carried
	// (informational, like App).
	AppParams map[string]float64
	// Priority is the admission class; the zero value is PriorityNormal.
	Priority Priority
	// Refine opts the job into online refinement around the cached
	// prediction, with the measured outcome appended to the training log.
	Refine bool
	// RequestID carries the HTTP request ID that created the job, so a
	// slow job in the records (or a training-log anomaly) is traceable
	// back to its originating request. Informational; empty for jobs
	// submitted outside the HTTP layer.
	RequestID string
}

// Result is what a succeeded job produced.
type Result struct {
	// Serial is true when the executed decision was the sequential
	// baseline; Par then carries the fallback CPU tiling.
	Serial bool
	// Par is the executed parameter setting (the cached prediction, or
	// the refined configuration for refine jobs).
	Par plan.Params
	// Cache reports how the plan fetch was served (hit/miss/coalesced).
	Cache string
	// PredictedNs is the cached plan's modeled runtime.
	PredictedNs float64
	// MeasuredNs is the measured runtime of the executed configuration
	// on the modeled system.
	MeasuredNs float64
	// SerialNs is the modeled sequential baseline, for speedup reporting.
	SerialNs float64
	// Steps is the number of barrier-separated wavefront steps of the
	// executed schedule (engine.MeasureStepsNs): the diagonal count for
	// a hybrid run, 1 for the barrier-free serial sweep. Progress
	// reporting must use it instead of recomputing NumDiags from the
	// shape, which misstates irregular executions. Zero means unknown.
	Steps int
	// Refine carries the online-refinement statistics for refine jobs
	// (nil otherwise).
	Refine *core.RefineStats
}

// Job is an immutable snapshot of one job record.
type Job struct {
	ID string
	Spec
	State State
	// CancelRequested is set once Cancel was called; a running job stays
	// StateRunning until the worker observes the cancellation.
	CancelRequested bool
	// Err holds the failure message for StateFailed jobs.
	Err string
	// Created, Started and Finished stamp the lifecycle transitions
	// (zero until reached).
	Created, Started, Finished time.Time
	// Result is set once the job succeeded.
	Result *Result
}

// Filter selects jobs in List.
type Filter struct {
	// State, when non-nil, keeps only jobs in that lifecycle state.
	State *State
	// System, when non-empty, keeps only jobs for that system.
	System string
}

// Stats is a snapshot of the manager's counters, merged into the
// daemon's GET /v1/stats.
type Stats struct {
	// Submitted counts admitted jobs; Rejected counts queue-full
	// rejections (429s).
	Submitted uint64 `json:"submitted"`
	Rejected  uint64 `json:"rejected"`
	// Succeeded/Failed/Canceled count terminal outcomes.
	Succeeded uint64 `json:"succeeded"`
	Failed    uint64 `json:"failed"`
	Canceled  uint64 `json:"canceled"`
	// Refined counts succeeded jobs that ran online refinement;
	// TrainingRows counts observations appended to the training log.
	Refined      uint64 `json:"refined"`
	TrainingRows uint64 `json:"training_rows"`
	// Queued and Running describe the instantaneous load; Workers and
	// QueueDepth the configured bounds.
	Queued     int `json:"queued"`
	Running    int `json:"running"`
	Workers    int `json:"workers"`
	QueueDepth int `json:"queue_depth"`
	// AvgServiceSec is the moving average of observed job service times
	// (start to finish) — the signal behind the 429 Retry-After hint.
	// Zero until the first job finishes.
	AvgServiceSec float64 `json:"avg_service_sec"`
}

// PlanFunc resolves the tuned plan for an instance, reporting how the
// lookup was served. The daemon passes tunecache.(*Cache).Get, so
// concurrent jobs for one workload share a single tuner evaluation.
type PlanFunc func(system string, inst plan.Instance) (tunecache.Plan, tunecache.Outcome, error)

// TunerFunc resolves the trained base predictor for a system; refine
// jobs wrap it in a core.OnlineTuner.
type TunerFunc func(system string) (core.Predictor, error)

// Config configures a Manager.
type Config struct {
	// Systems are the platforms jobs may target; empty selects
	// hw.Systems().
	Systems []hw.System
	// Plans resolves tuned plans (required).
	Plans PlanFunc
	// Tuners resolves base tuners for refine jobs; when nil, refine
	// submissions are rejected at admission.
	Tuners TunerFunc
	// Workers bounds the worker pool (<= 0 selects DefaultWorkers).
	Workers int
	// QueueDepth bounds the number of queued (not yet running) jobs
	// (<= 0 selects DefaultQueueDepth).
	QueueDepth int
	// TrainingLog, when set, receives (instance, params, measured ns)
	// observations from refined jobs.
	TrainingLog *core.ObservationLog
	// OnObservation, when set, is called after each successful
	// training-log append with the observed system — the retrainer's
	// wake-up hook.
	OnObservation func(system string)
	// MaxRecords bounds retained finished job records; the oldest
	// finished records are pruned beyond it (<= 0 selects
	// DefaultMaxRecords). The same bound retains finished pipeline
	// records.
	MaxRecords int
	// MaxPipelines bounds concurrently active (non-terminal) pipelines;
	// submissions beyond it are rejected with ErrQueueFull (<= 0
	// selects DefaultMaxPipelines).
	MaxPipelines int
	// Logger receives job and pipeline lifecycle lines; nil discards
	// them.
	Logger *slog.Logger
	// Metrics, when set, receives latency observations from the
	// manager's hot paths (queue wait, execution, pipeline waves). Nil
	// disables instrumentation at zero cost.
	Metrics *Metrics
	// SlowJob, when positive, logs the full span tree of any job whose
	// execution (start to finish) exceeds it — the worker-pool analogue
	// of the HTTP layer's slow-request threshold.
	SlowJob time.Duration
}

// Metrics is the manager's telemetry hook block: histograms owned by
// the daemon's registry that the manager feeds at event time. Any field
// may be nil; all durations are observed in seconds.
type Metrics struct {
	// QueueWaitSec observes admission-to-start latency (how long jobs
	// sat queued) — the congestion signal behind Retry-After.
	QueueWaitSec *telemetry.Histogram
	// ExecSec observes start-to-finish execution time per job.
	ExecSec *telemetry.Histogram
	// WaveSec observes pipeline wave durations: from the wave's first
	// admission attempt (including any wait for queue space) to the
	// resolution of its barrier, retry rounds included.
	WaveSec *telemetry.Histogram
	// EngineSec observes individual engine measurements (the modeled
	// wavefront executions inside a job, including refine probes'
	// final step accounting).
	EngineSec *telemetry.Histogram
}

// observe is the nil-safe recording helper for optional histograms.
func observe(h *telemetry.Histogram, d time.Duration) {
	if h != nil {
		h.Observe(d.Seconds())
	}
}

// Defaults for the Config bounds.
const (
	DefaultWorkers      = 4
	DefaultQueueDepth   = 64
	DefaultMaxRecords   = 1024
	DefaultMaxPipelines = 16
)
