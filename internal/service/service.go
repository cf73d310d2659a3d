// Package service exposes the autotuner as a long-running HTTP daemon:
// "tuning as a service". A client POSTs an application instance (system,
// shape, granularity) to /v1/tune and receives the tuned parameters with
// their modeled runtimes; the paper's "train once, predict per instance"
// deployment thereby becomes a request/response protocol. Predictions
// are served through a tunecache.Cache, so repeated and concurrent
// requests for one workload cost a single tuner evaluation. Each served
// system's tuner is loaded once when the server is built; GET
// /v1/systems reports it ready, or failed if the load failed.
// Beyond one-shot predictions, the daemon runs whole tuned wavefront
// jobs asynchronously through internal/jobs (POST /v1/jobs), with
// optional online refinement feeding a persisted training log, and
// chains jobs into wave-DAG pipelines (POST /v1/pipelines): ordered
// waves of jobs with sequential barriers and per-wave failure policies.
//
// Named applications resolve through the internal/apps registry, so the
// daemon has no per-app code: registering a workload (builtin.go or
// wavefront.RegisterApp) makes it tunable, runnable and discoverable
// here with no service change.
//
// Endpoints:
//
//	POST   /v1/tune            predict tuned Params for an instance (cache-backed)
//	POST   /v1/tune/batch      predict many instances in one request (deduped, parallel)
//	POST   /v1/jobs            submit an asynchronous tuned-execution job
//	GET    /v1/jobs            list job records (filterable by state/system)
//	GET    /v1/jobs/{id}       poll one job record
//	DELETE /v1/jobs/{id}       cancel a queued or running job
//	POST   /v1/pipelines       submit a wave-DAG pipeline of jobs (sequential wave barriers)
//	GET    /v1/pipelines       list pipeline records (filterable by state)
//	GET    /v1/pipelines/{id}  poll one pipeline record
//	DELETE /v1/pipelines/{id}  cancel a pipeline (running wave cooperatively, later waves skipped)
//	DELETE /v1/pipelines       prune finished pipeline records
//	GET    /v1/apps            list the application catalog (names, granularity, params)
//	GET    /v1/systems         list the served systems, tuner states and model generations
//	GET    /v1/stats           cache, job, pipeline, retrain and request counters, uptime
//	GET    /metrics            the same counters in Prometheus text format
//	GET    /healthz            liveness probe
//
// One route table (routes.go) registers exactly these. A method an
// endpoint does not list answers 405 with an Allow header, and an
// unknown path 404, both with the JSON error body.
//
// Every response carries an X-Request-ID header (generated, or echoed
// from the request); error bodies repeat it, and slow requests (see
// Config.SlowRequest) log their full trace-span tree under it.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"mime"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/jobs"
	"repro/internal/plan"
	"repro/internal/retrain"
	"repro/internal/telemetry"
	"repro/internal/tunecache"
)

// Config configures a tuning server. The zero value serves every Table 4
// system with the factory tuners (FactoryTuners) and a default-sized
// cache.
type Config struct {
	// Systems are the platforms served; empty selects hw.Systems().
	Systems []hw.System
	// Tuners resolves the tuner for each system, loaded once when the
	// server is built (the server remembers the result); nil selects
	// NewDirSource(FactoryTuners()), the factory tuners.
	Tuners TunerSource
	// CacheSize bounds the plan cache (<= 0 selects the tunecache
	// default).
	CacheSize int
	// Jobs configures the asynchronous job subsystem; the zero value
	// selects the jobs package defaults.
	Jobs JobOptions
	// Retrain configures the background champion/challenger retrainer;
	// it runs only when Jobs.TrainingLogDir is set (the retrainer feeds
	// on the observation logs written there) and Retrain.Off is false.
	Retrain RetrainOptions
	// Logger receives one line per request from the telemetry
	// middleware, and the daemon's, job manager's and retrainer's
	// lifecycle lines; nil discards them.
	Logger *slog.Logger
	// SlowRequest, when positive, traces every request under an
	// http.request span and logs the full span tree of any request whose
	// end-to-end latency reaches it. Zero opens no spans.
	SlowRequest time.Duration
}

// JobOptions is the service-level slice of jobs.Config: the bounds of
// the worker pool and queue, and where refined jobs' measured
// observations are persisted for retraining.
type JobOptions struct {
	// Workers bounds the worker pool (<= 0 selects the jobs default).
	Workers int
	// QueueDepth bounds the queued-job count (<= 0 selects the jobs
	// default); overflowing submissions are rejected with 429.
	QueueDepth int
	// TrainingLogDir, when set, appends refined jobs' measured
	// observations as per-system search-CSV files (wavetrain -from).
	TrainingLogDir string
	// MaxPipelines bounds concurrently active pipelines; overflowing
	// submissions are rejected with 429 (<= 0 selects the jobs
	// default).
	MaxPipelines int
	// SlowJob, when positive, logs the full trace-span tree of any job
	// whose execution reaches it (and of any pipeline slower than it) —
	// the worker-pool analogue of Config.SlowRequest.
	SlowJob time.Duration
}

// RetrainOptions is the service-level slice of retrain.Config: the loop
// thresholds of the background champion/challenger retrainer. The retrainer watches the observation logs refined jobs
// append under Jobs.TrainingLogDir, shadow-trains challengers, and
// atomically promotes winners into the serving tuner source (see
// internal/retrain).
type RetrainOptions struct {
	// Off disables the retrainer even when a training-log directory is
	// configured.
	Off bool
	// Interval is the loop's polling period (<= 0 selects the retrain
	// default); observations landing from refine jobs wake it early.
	Interval time.Duration
	// MinObservations is the unconsumed-row count that triggers a
	// retrain (<= 0 selects the retrain default).
	MinObservations int
}

// Server is the tuning daemon: an http.Handler plus the plan cache and
// the champion table of per-system tuners behind it.
type Server struct {
	cfg      Config
	systems  map[string]hw.System
	tuners   *champions
	cache    *tunecache.Cache
	jobs     *jobs.Manager
	trainLog *core.ObservationLog
	handler  http.Handler
	start    time.Time

	// retrainer runs the background loop promoting into tuners; nil when
	// retraining is off (no training-log directory, or Retrain.Off).
	retrainer *retrain.Retrainer

	httpMu   sync.Mutex
	httpSrv  *http.Server
	shutDown bool

	// m is the telemetry registry plus every pre-resolved series handle.
	m *serverMetrics
}

// New builds a server from cfg, loading every served system's tuner
// once, in cfg.Systems order, before it returns. A failed load does not
// fail New: it is logged, that system reads failed and its tunes and
// jobs return the error, and the other systems serve.
func New(cfg Config) (*Server, error) {
	if len(cfg.Systems) == 0 {
		cfg.Systems = hw.Systems()
	}
	if cfg.Tuners == nil {
		cfg.Tuners = NewDirSource(FactoryTuners())
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	s := &Server{
		cfg:     cfg,
		systems: make(map[string]hw.System, len(cfg.Systems)),
		start:   time.Now(),
		m:       newServerMetrics(),
	}
	for _, sys := range cfg.Systems {
		if sys.Name == "" {
			return nil, fmt.Errorf("service: system with empty name")
		}
		if _, dup := s.systems[sys.Name]; dup {
			return nil, fmt.Errorf("service: duplicate system %q", sys.Name)
		}
		s.systems[sys.Name] = sys
	}
	s.tuners = newChampions(cfg.Tuners, cfg.Systems, cfg.Logger)
	s.cache = tunecache.NewShardedCtx(cfg.CacheSize, 0, s.predict)
	if cfg.Jobs.TrainingLogDir != "" {
		var err error
		if s.trainLog, err = core.NewObservationLog(cfg.Jobs.TrainingLogDir); err != nil {
			return nil, err
		}
	}
	var onObservation func(system string)
	if cfg.Jobs.TrainingLogDir != "" && !cfg.Retrain.Off {
		r, err := retrain.New(retrain.Config{
			Systems:         cfg.Systems,
			LogDir:          cfg.Jobs.TrainingLogDir,
			Interval:        cfg.Retrain.Interval,
			MinObservations: cfg.Retrain.MinObservations,
			Champion:        func(sys hw.System) (core.Predictor, error) { return s.tuners.tuner(sys.Name) },
			Promote:         s.promote,
			Logger:          cfg.Logger,
			TrainSec:        s.m.retrainSec,
		})
		if err != nil {
			s.trainLog.Close()
			return nil, err
		}
		s.retrainer = r
		onObservation = r.Notify
	}
	var err error
	s.jobs, err = jobs.New(jobs.Config{
		Systems:       cfg.Systems,
		Plans:         s.cache.Get,
		Tuners:        s.tuners.tuner,
		Workers:       cfg.Jobs.Workers,
		QueueDepth:    cfg.Jobs.QueueDepth,
		TrainingLog:   s.trainLog,
		OnObservation: onObservation,
		MaxPipelines:  cfg.Jobs.MaxPipelines,
		Logger:        cfg.Logger,
		Metrics:       s.m.jobs,
		SlowJob:       cfg.Jobs.SlowJob,
	})
	if err != nil {
		if s.trainLog != nil {
			s.trainLog.Close()
		}
		return nil, err
	}
	s.registerCollectors()
	s.handler = s.withTelemetry(s.routeMux())
	if s.retrainer != nil {
		s.retrainer.Start()
	}
	return s, nil
}

// Cache returns the plan cache and its counters.
func (s *Server) Cache() *tunecache.Cache { return s.cache }

// Jobs returns the asynchronous job manager behind /v1/jobs.
func (s *Server) Jobs() *jobs.Manager { return s.jobs }

// Retrainer returns the background champion/challenger retrainer, or
// nil when retraining is off (no training-log directory, or
// Config.Retrain.Off).
func (s *Server) Retrainer() *retrain.Retrainer { return s.retrainer }

// Handler returns the HTTP handler tree — the routing mux wrapped in
// the telemetry middleware — for mounting under httptest or a
// caller-owned http.Server.
func (s *Server) Handler() http.Handler { return s.handler }

// predict is the cache's miss path: evaluate the system's serving tuner
// once. ctx carries the leading caller's trace span on the HTTP tune
// path (GetCtx), so the evaluation shows up under that request's
// cache.lookup span; the histogram times only the model evaluation.
func (s *Server) predict(ctx context.Context, system string, inst plan.Instance) (tunecache.Plan, error) {
	t, err := s.tuners.tuner(system)
	if err != nil {
		return tunecache.Plan{}, fmt.Errorf("service: tuner for %s: %w", system, err)
	}
	_, span := telemetry.StartSpan(ctx, "tuner.predict")
	span.Annotate("system", system)
	// Timed directly: the span is nil when the lookup came in without a
	// trace root (the job manager's plan fetches), and the histogram
	// must observe real durations either way.
	t0 := time.Now()
	pred, rtime, serial, err := t.PredictTimed(inst)
	span.End()
	s.m.predictSec.Observe(time.Since(t0).Seconds())
	if err != nil {
		return tunecache.Plan{}, err
	}
	return tunecache.Plan{Serial: pred.Serial, Par: pred.Par, RTimeNs: rtime, SerialNs: serial}, nil
}

// retrainStats is the retrainer's snapshot; zero when retraining is off.
func (s *Server) retrainStats() retrain.Stats {
	if s.retrainer == nil {
		return retrain.Stats{}
	}
	return s.retrainer.Stats()
}

// promote is the retrainer's promotion hook: swap the system's champion
// in the table, then drop the plans the old champion made.
func (s *Server) promote(system string, t core.Predictor) (gen uint64, dropped int) {
	return s.tuners.promote(system, t), s.cache.InvalidateSystem(system)
}

// TuneRequest is the body of POST /v1/tune. The instance shape is either
// square (dim) or rectangular (rows and cols). Granularity comes either
// from a named application registered in the apps catalog (GET /v1/apps
// lists it), with its parameters only in the params object (e.g.
// {"app":"nash","params":{"rounds":2}}), or, without an app, from
// explicit tsize and dsize.
type TuneRequest struct {
	System string `json:"system"`
	Dim    int    `json:"dim,omitempty"`
	Rows   int    `json:"rows,omitempty"`
	Cols   int    `json:"cols,omitempty"`

	App    string             `json:"app,omitempty"`
	Params map[string]float64 `json:"params,omitempty"`
	TSize  *float64           `json:"tsize,omitempty"`
	DSize  *int               `json:"dsize,omitempty"`
}

// TuneParams is the tuned parameter setting in the response, decoded
// into the paper's five Table 2 parameters.
type TuneParams struct {
	CPUTile  int `json:"cpu_tile"`
	Band     int `json:"band"`
	GPUCount int `json:"gpu_count"`
	GPUTile  int `json:"gpu_tile"`
	Halo     int `json:"halo"`
}

// TuneInstance echoes the normalized instance the prediction is for.
type TuneInstance struct {
	Rows  int     `json:"rows"`
	Cols  int     `json:"cols"`
	TSize float64 `json:"tsize"`
	DSize int     `json:"dsize"`
}

// TuneResponse is the body of a successful POST /v1/tune.
type TuneResponse struct {
	System   string       `json:"system"`
	Instance TuneInstance `json:"instance"`
	// Serial is true when the parallelism gate chose the sequential
	// baseline; Params then carries the fallback CPU tiling.
	Serial bool       `json:"serial"`
	Params TuneParams `json:"params"`
	// RTimeSec is the modeled runtime of the decision; SerialSec the
	// modeled sequential baseline; Speedup their ratio.
	RTimeSec  float64 `json:"rtime_sec"`
	SerialSec float64 `json:"serial_sec"`
	Speedup   float64 `json:"speedup"`
	// Cache reports how the request was served: "hit", "miss" or
	// "coalesced".
	Cache string `json:"cache"`
}

// errorResponse is the body of every non-2xx reply. RequestID echoes
// the X-Request-ID header so a failure pasted into a bug report can be
// matched against the request log and traces.
type errorResponse struct {
	Error     string `json:"error"`
	RequestID string `json:"request_id,omitempty"`
}

// writeJSON writes one single, bounded object; record lists go through
// writeList.
func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	// Marshal plus a newline is what a json.Encoder writes, without
	// allocating an encoder and its buffer per response.
	if b, err := json.Marshal(v); err == nil {
		_, _ = w.Write(append(b, '\n'))
	}
}

// writeList answers 200 with a record list, {"count":N,"<key>":[...]}
// plus a newline: the bytes json.Marshal writes for the map form. The
// records are converted to their wire form and encoded one at a time
// through one reused buffer, so no response holds the whole body.
// Encoding through a pointer to one reused record boxes it once per
// list, not once per record.
func writeList[T, I any](w http.ResponseWriter, key string, list []T, info func(T) I) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	var buf bytes.Buffer
	buf.WriteString(`{"count":`)
	buf.WriteString(strconv.Itoa(len(list)))
	buf.WriteString(`,"` + key + `":[`)
	enc := json.NewEncoder(&buf)
	rec := new(I)
	for i, v := range list {
		if i > 0 {
			buf.WriteByte(',')
		}
		if *rec = info(v); enc.Encode(rec) != nil {
			return
		}
		// Drop the newline Encode ends each value with.
		buf.Truncate(buf.Len() - 1)
		if _, err := w.Write(buf.Bytes()); err != nil {
			return
		}
		buf.Reset()
	}
	buf.WriteString("]}\n")
	_, _ = w.Write(buf.Bytes())
}

func (s *Server) writeError(w http.ResponseWriter, code int, format string, args ...any) {
	resp := errorResponse{Error: fmt.Sprintf(format, args...)}
	// The middleware's wrapper carries the route and request ID; a
	// handler invoked bare (unit tests) counts under "other".
	route := "other"
	if sw, ok := w.(*statusWriter); ok {
		route, resp.RequestID = sw.route, sw.requestID
	}
	s.m.errors[route].Inc()
	s.writeJSON(w, code, resp)
}

// checkJSONBody enforces content-type hygiene on endpoints that decode
// a JSON body: an absent Content-Type is tolerated, and so is curl's
// bare `-d` default (application/x-www-form-urlencoded) since the
// daemon never parses forms and every documented example posts JSON
// that way; anything else must parse as application/json. It writes the
// 415 itself and reports whether the caller may proceed.
func (s *Server) checkJSONBody(w http.ResponseWriter, r *http.Request) bool {
	ct := r.Header.Get("Content-Type")
	if ct == "" || ct == "application/json" {
		return true
	}
	mt, _, err := mime.ParseMediaType(ct)
	if err == nil && (mt == "application/json" || mt == "application/x-www-form-urlencoded") {
		return true
	}
	s.writeError(w, http.StatusUnsupportedMediaType,
		"Content-Type %q not supported; use application/json", ct)
	return false
}

// decodeBody strictly decodes a JSON request body of at most limit bytes
// into v: the content type must pass checkJSONBody, unknown fields are
// rejected, and so is any data after the one JSON value. It writes the
// 415 or 400 itself and reports whether the caller may proceed.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	if !s.checkJSONBody(w, r) {
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		s.writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return false
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		s.writeError(w, http.StatusBadRequest, "unexpected data after request body")
		return false
	}
	return true
}

// maxServedSide caps the accepted instance side length. The paper's
// largest instance is dim 3100; the cap leaves three orders of magnitude
// of headroom while keeping per-request work bounded against abusive
// shapes.
const maxServedSide = 1 << 20

// instanceFrom validates a request and builds the plan.Instance, along
// with the fully resolved application parameter values (supplied
// params and schema defaults) that job records echo — nil for app-less
// requests. Named applications resolve through the apps registry —
// granularity, parameter schema and shape constraints all come from the
// catalog, so registering a workload makes it servable with no change
// here.
func (r TuneRequest) instanceFrom() (plan.Instance, apps.Values, error) {
	inst := plan.Instance{Dim: r.Dim, Rows: r.Rows, Cols: r.Cols}
	rows, cols := inst.Shape()
	if rows < 1 || cols < 1 {
		return inst, nil, fmt.Errorf("shape %dx%d invalid", rows, cols)
	}
	if inst.MaxSide() > maxServedSide {
		return inst, nil, fmt.Errorf("side %d exceeds the service limit %d", inst.MaxSide(), maxServedSide)
	}
	var resolved apps.Values
	if r.App == "" {
		if len(r.Params) > 0 {
			// A params object can only be interpreted against an app's
			// schema; swallowing it silently would let a request that
			// meant to name an app tune something else.
			return inst, nil, fmt.Errorf("params requires an app")
		}
		if r.TSize == nil || r.DSize == nil {
			return inst, nil, fmt.Errorf("either app or both tsize and dsize are required")
		}
		inst.TSize, inst.DSize = *r.TSize, *r.DSize
	} else {
		if r.TSize != nil || r.DSize != nil {
			// One spelling per knob: an app's granularity comes from its
			// parameters, which live in params.
			return inst, nil, fmt.Errorf("app %q: top-level tsize and dsize are not accepted with an app; pass app parameters in params", r.App)
		}
		app, ok := apps.Lookup(r.App)
		if !ok {
			return inst, nil, apps.UnknownAppError(r.App)
		}
		ai, rv, err := app.InstanceFor(rows, cols, r.Params)
		if err != nil {
			return inst, nil, err
		}
		// LiveCells rides along: masked workloads must fork their plan
		// cache key and cost model from the dense spelling of the shape.
		inst.TSize, inst.DSize, inst.LiveCells = ai.TSize, ai.DSize, ai.LiveCells
		resolved = rv
	}
	if err := inst.Validate(); err != nil {
		return inst, nil, err
	}
	return inst.Normalize(), resolved, nil
}

func (s *Server) handleTune(w http.ResponseWriter, r *http.Request) {
	var req TuneRequest
	if !s.decodeBody(w, r, 1<<16, &req) {
		return
	}
	if req.System == "" {
		s.writeError(w, http.StatusBadRequest, "system is required")
		return
	}
	if _, ok := s.systems[req.System]; !ok {
		s.writeError(w, http.StatusNotFound, "unknown system %q", req.System)
		return
	}
	inst, _, err := req.instanceFrom()
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "invalid instance: %v", err)
		return
	}

	p, outcome, err := s.lookup(r.Context(), req.System, inst)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, "tuning failed: %v", err)
		return
	}
	resp := tuneResponseFor(req.System, inst, p, outcome)
	if s.cfg.Logger.Enabled(r.Context(), slog.LevelInfo) {
		// Guarded: rendering the attributes allocates even when nothing
		// logs.
		s.cfg.Logger.LogAttrs(r.Context(), slog.LevelInfo, "tune",
			slog.String("system", req.System), slog.String("instance", inst.String()),
			slog.String("params", p.Par.String()), slog.String("cache", outcome.String()))
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// lookup serves one plan through the cache under a cache.lookup span (a
// child of the request's span, if any) and times it for the lookup
// histogram. /v1/tune and every unique key of a batch call it.
func (s *Server) lookup(ctx context.Context, system string, inst plan.Instance) (tunecache.Plan, tunecache.Outcome, error) {
	lctx, span := telemetry.StartSpan(ctx, "cache.lookup")
	if span != nil {
		span.Annotate("system", system).
			Annotate("shard", s.cache.ShardIndex(system, inst))
	}
	t0 := time.Now()
	p, outcome, err := s.cache.GetCtx(lctx, system, inst)
	span.Annotate("outcome", outcome).End()
	s.m.cacheLookupSec.Observe(time.Since(t0).Seconds())
	return p, outcome, err
}

// tuneResponseFor builds the wire form of one served plan (shared by
// /v1/tune and the per-item results of /v1/tune/batch).
func tuneResponseFor(system string, inst plan.Instance, p tunecache.Plan, outcome tunecache.Outcome) TuneResponse {
	rows, cols := inst.Shape()
	resp := TuneResponse{
		System:   system,
		Instance: TuneInstance{Rows: rows, Cols: cols, TSize: inst.TSize, DSize: inst.DSize},
		Serial:   p.Serial,
		Params: TuneParams{
			CPUTile: p.Par.CPUTile, Band: p.Par.Band, GPUCount: p.Par.GPUCount(),
			GPUTile: p.Par.GPUTile, Halo: p.Par.Halo,
		},
		RTimeSec:  p.RTimeNs / 1e9,
		SerialSec: p.SerialNs / 1e9,
		Cache:     outcome.String(),
	}
	if p.RTimeNs > 0 {
		resp.Speedup = p.SerialNs / p.RTimeNs
	}
	return resp
}

// SystemInfo describes one served system in GET /v1/systems.
type SystemInfo struct {
	Name    string   `json:"name"`
	Cores   int      `json:"cores"`
	GPUs    []string `json:"gpus"`
	MaxGPUs int      `json:"max_gpus"`
	// Tuner is "ready" when the system's tuner, loaded once when the
	// server was built, is serving, and "failed" when that load failed.
	Tuner string `json:"tuner"`
	// Generation is the serving model generation from the champion
	// table: 1 for the factory champion, +1 per promotion.
	Generation uint64 `json:"generation"`
}

func (s *Server) handleSystems(w http.ResponseWriter, r *http.Request) {
	infos := make([]SystemInfo, 0, len(s.cfg.Systems))
	for _, sys := range s.cfg.Systems {
		info := SystemInfo{
			Name: sys.Name, Cores: sys.CPU.Cores, MaxGPUs: sys.MaxGPUs(),
			GPUs: make([]string, 0, len(sys.GPUs)), Tuner: s.tuners.state(sys.Name),
			Generation: s.tuners.generation(sys.Name),
		}
		for _, g := range sys.GPUs {
			info.GPUs = append(info.GPUs, g.Name)
		}
		infos = append(infos, info)
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"systems": infos})
}

// StatsResponse is the body of GET /v1/stats. Cache is the aggregate
// counter blob; CacheBySystem breaks the same counters down per served
// system, so a multi-platform daemon shows where its traffic lands.
type StatsResponse struct {
	UptimeSec     float64                    `json:"uptime_sec"`
	Cache         tunecache.Stats            `json:"cache"`
	CacheBySystem map[string]tunecache.Stats `json:"cache_by_system"`
	Jobs          jobs.Stats                 `json:"jobs"`
	Pipelines     jobs.PipelineStats         `json:"pipelines"`
	Requests      map[string]uint64          `json:"requests"`
	// Retrain is the background retrainer's snapshot — last verdict and
	// attempt counters per system; absent when retraining is off. The
	// model generation is on GET /v1/systems.
	Retrain *retrain.Stats `json:"retrain,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	var retrainStats *retrain.Stats
	if s.retrainer != nil {
		rs := s.retrainer.Stats()
		retrainStats = &rs
	}
	// One count per route label, plus the error total.
	requests := map[string]uint64{"errors": s.m.errorsVec.Total()}
	for label, c := range s.m.requests {
		requests[label] = c.Value()
	}
	s.writeJSON(w, http.StatusOK, StatsResponse{
		UptimeSec:     time.Since(s.start).Seconds(),
		Cache:         s.cache.Stats(),
		CacheBySystem: s.cache.SystemStats(),
		Jobs:          s.jobs.Stats(),
		Pipelines:     s.jobs.PipelineStats(),
		Requests:      requests,
		Retrain:       retrainStats,
	})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// ListenAndServe binds addr and serves until Shutdown. It returns nil
// after a clean shutdown (http.ErrServerClosed is swallowed).
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("service: %w", err)
	}
	return s.Serve(l)
}

// Connection timeouts of Serve: a client that stalls mid-header, or
// leaves a keep-alive connection idle, is disconnected. Both are
// generous, so no healthy client takes that long over one request's
// headers or waits that long between requests. readHeaderTimeout is a
// variable so tests can shorten it.
var readHeaderTimeout = 10 * time.Second

const idleTimeout = 2 * time.Minute

// Serve serves on l until Shutdown.
func (s *Server) Serve(l net.Listener) error {
	srv := &http.Server{
		Handler:           s.handler,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	s.httpMu.Lock()
	if s.shutDown {
		// Shutdown already ran (e.g. a signal raced ahead of the serve
		// goroutine); don't start a server nothing will ever stop.
		s.httpMu.Unlock()
		l.Close()
		return nil
	}
	s.httpSrv = srv
	s.httpMu.Unlock()
	// The message stays one string: clients find the daemon's port by
	// matching "serving on <addr>" in its log.
	s.cfg.Logger.Info("serving on " + l.Addr().String())
	if err := srv.Serve(l); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// Shutdown gracefully stops an active Serve/ListenAndServe (in-flight
// requests drain until ctx expires), drains the job subsystem (running
// and queued jobs complete, or are canceled once ctx expires; the
// training log is write-through, so every appended observation is
// already persisted), then stops the retrainer and closes the training
// log. The plan cache is process memory and is not saved: the next
// start refills it on demand from the tuners it serves.
func (s *Server) Shutdown(ctx context.Context) error {
	var err error
	s.httpMu.Lock()
	srv := s.httpSrv
	s.shutDown = true
	s.httpMu.Unlock()
	if srv != nil {
		err = srv.Shutdown(ctx)
	}
	if jerr := s.jobs.Shutdown(ctx); jerr != nil {
		s.cfg.Logger.Error("job drain cut short", "err", jerr)
		err = errors.Join(err, jerr)
	}
	if s.retrainer != nil {
		// After the job drain (no more observations will land) and before
		// the training log closes: an in-progress retrain pass reads the
		// log files the appenders still hold open.
		s.retrainer.Stop()
	}
	if s.trainLog != nil {
		// After the job drain: closing flushes the final rows and
		// releases the per-system appenders. A straggler worker that
		// outlives a cut-short drain can still append afterwards — the
		// log falls back to one-shot write-through, so nothing is lost.
		if cerr := s.trainLog.Close(); cerr != nil {
			s.cfg.Logger.Error("closing training log", "err", cerr)
			err = errors.Join(err, cerr)
		}
	}
	return err
}
