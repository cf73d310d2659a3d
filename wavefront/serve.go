package wavefront

// The serving surface: the paper's "train once, predict per instance"
// deployment exposed as a long-running component. PlanCache memoizes
// tuned decisions per (system, instance); TuningServer wraps it in the
// HTTP protocol served by cmd/waved; JobManager runs whole tuned
// wavefront jobs asynchronously (queue, worker pool, cancellation,
// online-refinement feedback into an ObservationLog). As with the rest
// of this package, the types are aliases of the internal implementation
// so downstream code never imports repro/internal/... directly.

import (
	"context"
	"net/http"

	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/retrain"
	"repro/internal/service"
	"repro/internal/tunecache"
)

// PlanCache is a concurrency-safe sharded LRU cache of tuned plans with
// singleflight deduplication of concurrent misses and JSON persistence.
// Keys hash onto independently locked shards, so concurrent lookups on
// different keys never contend on one mutex.
type PlanCache = tunecache.Cache

// CachedPlan is a cached tuning decision with its modeled runtimes.
type CachedPlan = tunecache.Plan

// CacheStats is a snapshot of a PlanCache's counters.
type CacheStats = tunecache.Stats

// PredictFunc fills PlanCache misses; it runs exactly once per missing
// key regardless of how many callers wait on it.
type PredictFunc = tunecache.PredictFunc

// PredictCtxFunc is the context-aware PredictFunc: the leading caller's
// context (and so its trace span) reaches the fill, for caches built
// with NewPlanCacheCtx and queried through PlanCache.GetCtx.
type PredictCtxFunc = tunecache.PredictCtxFunc

// CacheOutcome classifies how a PlanCache lookup was served.
type CacheOutcome = tunecache.Outcome

// The three lookup outcomes: resident (CacheHit), computed by this
// caller (CacheMiss), or shared from a concurrent caller's in-flight
// computation (CacheCoalesced).
const (
	CacheHit       = tunecache.Hit
	CacheMiss      = tunecache.Miss
	CacheCoalesced = tunecache.Coalesced
)

// TuningServer is the HTTP tuning daemon: POST /v1/tune, the
// POST/GET/DELETE /v1/jobs job routes, GET /v1/systems, GET /v1/stats,
// GET /healthz. Its job manager is reachable via Jobs().
type TuningServer = service.Server

// TuningConfig configures NewTuningServer.
type TuningConfig = service.Config

// TunerSource lazily resolves the tuner for a system (trained on demand,
// loaded from disk, or served from memory).
type TunerSource = service.TunerSource

// ReadyReporter is the optional TunerSource extension consulted by
// GET /v1/systems for the "lazy"/"ready" tuner state.
type ReadyReporter = service.ReadyReporter

// TrainingSourceOptions configure NewTrainingTunerSource.
type TrainingSourceOptions = service.TrainingSourceOptions

// NewPlanCache creates a plan cache bounded to capacity entries
// (capacity <= 0 selects the default) filling misses through predict,
// sharded the default way (GOMAXPROCS shards, clamped for small caches).
func NewPlanCache(capacity int, predict PredictFunc) *PlanCache {
	return tunecache.New(capacity, predict)
}

// CacheOptions configure NewPlanCacheOpts beyond the capacity bound.
type CacheOptions struct {
	// Capacity bounds the resident plans (<= 0 selects the default).
	Capacity int
	// Shards is the number of independently locked shards (<= 0 selects
	// GOMAXPROCS; the count is clamped so every shard keeps a useful
	// LRU slice, meaning small caches stay unsharded with exact LRU
	// semantics).
	Shards int
}

// NewPlanCacheOpts creates a plan cache with explicit sharding control;
// NewPlanCache is the common-default shorthand.
func NewPlanCacheOpts(opts CacheOptions, predict PredictFunc) *PlanCache {
	return tunecache.NewSharded(opts.Capacity, opts.Shards, predict)
}

// NewPlanCacheCtx is NewPlanCacheOpts with a context-aware predict, so
// trace spans thread through the miss path (see PredictCtxFunc).
func NewPlanCacheCtx(opts CacheOptions, predict PredictCtxFunc) *PlanCache {
	return tunecache.NewShardedCtx(opts.Capacity, opts.Shards, predict)
}

// NewTuningServer builds the tuning daemon from cfg. The zero config
// serves every Table 4 system with lazily trained quick-space tuners.
func NewTuningServer(cfg TuningConfig) (*TuningServer, error) {
	return service.New(cfg)
}

// TuneRequest is one tune query in the daemon's wire format: the
// instance shape plus either explicit granularity or a named catalog
// application (the per-item element of BatchTuneRequest).
type TuneRequest = service.TuneRequest

// BatchTuneRequest is the body of POST /v1/tune/batch: up to the
// daemon's batch limit of tune queries answered in one round trip, with
// repeated shapes deduplicated server-side.
type BatchTuneRequest = service.BatchTuneRequest

// DefaultBatchLimit is the daemon's default cap on items per batch
// request (waved -batch-limit overrides it); clients submitting more
// shapes than this should chunk.
const DefaultBatchLimit = service.DefaultBatchLimit

// BatchTuneResponse is the reply of POST /v1/tune/batch; Results aligns
// index-for-index with the request's items.
type BatchTuneResponse = service.BatchTuneResponse

// BatchTuneResult is one batch item's outcome: a tune response, or an
// error scoped to that item alone.
type BatchTuneResult = service.BatchTuneResult

// TuneBatch submits a batch of tune queries to the daemon at baseURL
// (e.g. "http://localhost:8080") in one POST /v1/tune/batch round trip.
// client == nil selects http.DefaultClient. Per-item failures are
// reported in the result slice; only a rejected batch (too many items,
// malformed request, unreachable daemon) returns an error.
func TuneBatch(ctx context.Context, client *http.Client, baseURL string, req BatchTuneRequest) (*BatchTuneResponse, error) {
	return service.BatchTune(ctx, client, baseURL, req)
}

// NewTrainingTunerSource returns a TunerSource that trains a tuner per
// system on first use (the wavetrain "factory" path, run lazily).
func NewTrainingTunerSource(opts TrainingSourceOptions) TunerSource {
	return service.NewTrainingSource(opts)
}

// NewDirTunerSource returns a TunerSource that loads
// "<dir>/<system>.json" tuner files written by SavePredictor
// (wavetrain -save).
func NewDirTunerSource(dir string) TunerSource {
	return service.NewDirSource(dir)
}

// NewStaticTunerSource serves the given pre-built predictors, indexed
// by system name.
func NewStaticTunerSource(tuners ...Predictor) TunerSource {
	return service.NewStaticSource(tuners...)
}

// JobManager is the asynchronous job execution subsystem: a bounded
// priority queue and worker pool running tuned wavefront jobs against
// the modeled systems, with per-job lifecycle records, cooperative
// cancellation, graceful drain and optional online-refinement feedback.
// It also runs wave-DAG pipelines (SubmitPipeline): jobs grouped into
// ordered waves with sequential barriers and per-wave failure policies.
type JobManager = jobs.Manager

// JobConfig configures NewJobManager.
type JobConfig = jobs.Config

// JobSpec describes a submitted job (system, instance, priority,
// refinement opt-in).
type JobSpec = jobs.Spec

// Job is an immutable snapshot of one job record.
type Job = jobs.Job

// JobResult is what a succeeded job executed and measured.
type JobResult = jobs.Result

// JobState is a job's lifecycle state; JobPriority its admission class.
type JobState = jobs.State

// JobPriority is a job's admission class.
type JobPriority = jobs.Priority

// JobFilter selects jobs in JobManager.List.
type JobFilter = jobs.Filter

// JobStats is a snapshot of a JobManager's counters.
type JobStats = jobs.Stats

// JobPlanFunc resolves the tuned plan for a job (JobConfig.Plans); pass
// a PlanCache's Get method, or any custom resolver with this signature.
type JobPlanFunc = jobs.PlanFunc

// JobTunerFunc resolves the base tuner refine jobs climb around
// (JobConfig.Tuners).
type JobTunerFunc = jobs.TunerFunc

// JobOptions is the service-level job configuration consumed by
// TuningConfig.Jobs (worker/queue bounds, refine budget, training log).
type JobOptions = service.JobOptions

// Job lifecycle states and admission classes, re-exported for callers
// outside the module.
const (
	JobQueued    = jobs.StateQueued
	JobRunning   = jobs.StateRunning
	JobSucceeded = jobs.StateSucceeded
	JobFailed    = jobs.StateFailed
	JobCanceled  = jobs.StateCanceled

	JobPriorityLow    = jobs.PriorityLow
	JobPriorityNormal = jobs.PriorityNormal
	JobPriorityHigh   = jobs.PriorityHigh
)

// NewJobManager starts an asynchronous job manager from cfg (library
// use without the HTTP daemon; the daemon's manager is reachable via
// TuningServer.Jobs).
func NewJobManager(cfg JobConfig) (*JobManager, error) {
	return jobs.New(cfg)
}

// PipelineSpec describes a wave-DAG pipeline submission: ordered waves
// of job specs, where jobs within a wave run in parallel through the
// manager's worker pool and wave N+1 is admitted only after wave N
// resolves at a sequential barrier.
type PipelineSpec = jobs.PipelineSpec

// WaveSpec is one wave of a PipelineSpec: parallel jobs between two
// sequential barriers, with a failure policy.
type WaveSpec = jobs.WaveSpec

// PipelineJob is one named job of a wave.
type PipelineJob = jobs.PipelineJob

// WaveFailurePolicy decides how a wave resolves when jobs fail: abort
// (default), continue, or retry within a budget.
type WaveFailurePolicy = jobs.FailurePolicy

// The three wave failure policies.
const (
	WavePolicyAbort    = jobs.PolicyAbort
	WavePolicyContinue = jobs.PolicyContinue
	WavePolicyRetry    = jobs.PolicyRetry
)

// Pipeline is an immutable snapshot of one pipeline record; Wave
// snapshots one of its waves.
type Pipeline = jobs.Pipeline

// PipelineWave is the immutable snapshot of one wave's record.
type PipelineWave = jobs.PipelineWave

// PipelineState is a pipeline's lifecycle state; PipelineEvent drives
// the state machine.
type PipelineState = jobs.PipelineState

// PipelineEvent is one input of the pipeline state machine.
type PipelineEvent = jobs.PipelineEvent

// Pipeline lifecycle states, re-exported for callers outside the
// module.
const (
	PipelineQueued      = jobs.PipeQueued
	PipelineWaveRunning = jobs.PipeWaveRunning
	PipelineWaveBarrier = jobs.PipeWaveBarrier
	PipelineSucceeded   = jobs.PipeSucceeded
	PipelineFailed      = jobs.PipeFailed
	PipelineCanceled    = jobs.PipeCanceled
)

// PipelineFilter selects pipelines in JobManager.ListPipelines.
type PipelineFilter = jobs.PipelineFilter

// PipelineStats is a snapshot of a JobManager's pipeline counters.
type PipelineStats = jobs.PipelineStats

// PipelineTransition is the pipeline lifecycle state machine as a pure
// function: the state after applying e in s, and whether the transition
// is legal.
func PipelineTransition(s PipelineState, e PipelineEvent) (PipelineState, bool) {
	return jobs.PipelineTransition(s, e)
}

// ObservationLog persists measured (instance, params, runtime)
// observations as per-system search-CSV files that wavetrain -from can
// fold into retraining.
type ObservationLog = core.ObservationLog

// Observation is one measured configuration for the ObservationLog.
type Observation = core.Observation

// NewObservationLog creates (if needed) dir and returns a log writing
// per-system CSV files into it.
func NewObservationLog(dir string) (*ObservationLog, error) {
	return core.NewObservationLog(dir)
}

// RetrainOptions configure the daemon's background champion/challenger
// retrainer (TuningConfig.Retrain): loop thresholds, holdout fraction
// and the promotion guardrail. The retrainer runs whenever a training
// log directory is configured and Off is false.
type RetrainOptions = service.RetrainOptions

// Retrainer is the background champion/challenger loop behind the
// daemon (TuningServer.Retrainer): it watches the observation logs,
// shadow-trains challengers on accumulated rows, scores them against
// the serving champion on a held-out split, and atomically promotes
// winners.
type Retrainer = retrain.Retrainer

// RetrainGuardrail parameterizes the promotion gate: minimum paired
// samples, minimum mean-error improvement, and the sign-test win-rate
// floor that keeps a lucky noisy challenger from being promoted.
type RetrainGuardrail = retrain.GuardrailOptions

// RetrainVerdict is the outcome of one champion/challenger comparison.
type RetrainVerdict = retrain.Verdict

// RetrainStats is the retrainer's snapshot surfaced through /v1/stats
// (model generations, promotion counters, last verdicts per system).
type RetrainStats = retrain.Stats

// RetrainSystemStatus is one system's entry in RetrainStats.
type RetrainSystemStatus = retrain.SystemStatus

// DecidePromotion is the retrainer's pure guardrail: paired prediction
// errors of champion and challenger on the same held-out observations
// in, promotion verdict out. Exposed for offline what-if analysis of
// recorded error sets.
func DecidePromotion(champion, challenger []float64, opts RetrainGuardrail) RetrainVerdict {
	return retrain.Decide(champion, challenger, opts)
}
