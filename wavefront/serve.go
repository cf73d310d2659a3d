package wavefront

// The serving surface: the paper's "train once, predict per instance"
// deployment as the HTTP tuning daemon behind cmd/waved, the tuner
// sources it draws predictors from and its batch client. The plan cache, job queue, retrainer and metrics registry
// behind it are reached over HTTP (/v1/tune, /v1/jobs, /v1/pipelines,
// /v1/stats, /metrics).

import (
	"context"
	"io/fs"
	"net/http"

	"repro/internal/retrain"
	"repro/internal/service"
)

// TuningServer is the HTTP tuning daemon: POST /v1/tune and
// /v1/tune/batch, the /v1/jobs and /v1/pipelines routes, GET /v1/apps,
// /v1/systems, /v1/stats, /metrics and /healthz.
type TuningServer = service.Server

// TuningConfig configures NewTuningServer.
type TuningConfig = service.Config

// TunerSource resolves the tuner for a system (loaded from tuner files
// or served from memory). The server calls it once per served system,
// when it is built, and remembers the result.
type TunerSource = service.TunerSource

// JobOptions is the service-level job configuration consumed by
// TuningConfig.Jobs (worker/queue bounds, refine budget, training log).
type JobOptions = service.JobOptions

// RetrainOptions configure the daemon's background champion/challenger
// retrainer (TuningConfig.Retrain): loop thresholds, holdout fraction
// and the promotion guardrail. The retrainer runs whenever a training
// log directory is configured and Off is false.
type RetrainOptions = service.RetrainOptions

// RetrainGuardrail parameterizes the promotion gate
// (RetrainOptions.Guardrail): minimum paired samples, minimum mean-error
// improvement, and the sign-test win-rate floor that keeps a lucky noisy
// challenger from being promoted.
type RetrainGuardrail = retrain.GuardrailOptions

// NewTuningServer builds the tuning daemon from cfg, loading every
// served system's tuner once before it returns. The zero config serves
// every Table 4 system with the factory tuners (FactoryTuners).
func NewTuningServer(cfg TuningConfig) (*TuningServer, error) {
	return service.New(cfg)
}

// FactoryTuners returns the tuner files shipped with the daemon, one
// "<system>.json" per Table 4 system, trained offline from a search of
// the synthetic application on the full Table 3 space with cpu-tiles 16
// and 32 added.
func FactoryTuners() fs.FS { return service.FactoryTuners() }

// NewDirTunerSource returns a TunerSource that loads "<system>.json"
// tuner files written by SavePredictor (wavetrain -save) from fsys:
// os.DirFS of a directory, or FactoryTuners.
func NewDirTunerSource(fsys fs.FS) TunerSource {
	return service.NewDirSource(fsys)
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
