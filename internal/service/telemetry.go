package service

// The daemon's observability layer: one telemetry.Registry renders GET
// /metrics (Prometheus text format). The middleware below wraps the
// whole mux — it stamps a request ID into the context, response header
// and error bodies, opens (with slow-request logging on) the
// http.request trace span the handlers chain children onto
// (cache.lookup → tuner.predict on the tune path), counts every
// response by route and status code, and feeds the per-route latency
// histograms from the request's wall-clock duration.
// Subsystems that keep their own counters (cache shards, job queues,
// pipelines, the retrainer, the champion table) surface through
// scrape-time collectors instead of being counted twice.

import (
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"repro/internal/jobs"
	"repro/internal/telemetry"
)

// serverMetrics is the server's handle block into its registry: every
// series the request paths touch is resolved once at construction, so
// handling a request never takes a registry family lock.
type serverMetrics struct {
	reg *telemetry.Registry

	// Per-route handled-request and error counters — the same handles
	// /v1/stats reports — plus the middleware-level views:
	// responses by route and status code, the in-flight gauge and the
	// per-route latency histograms.
	requests  map[string]*telemetry.Counter
	errors    map[string]*telemetry.Counter
	errorsVec *telemetry.CounterVec
	latency   map[string]*telemetry.Histogram
	responses *telemetry.CounterVec
	inflight  *telemetry.Gauge

	// Stage histograms of the tune hot path, fed by span durations.
	cacheLookupSec *telemetry.Histogram
	predictSec     *telemetry.Histogram

	// jobs holds the histograms the job manager feeds (queue wait,
	// execution, pipeline waves, engine measurements).
	jobs *jobs.Metrics

	// retrainSec times the background retrainer's attempts; its counts
	// are collected from retrain.Stats.
	retrainSec *telemetry.Histogram
}

// newServerMetrics builds the registry and registers every stored
// family. Collectors for subsystem counters are added separately
// (registerCollectors) once the subsystems exist.
func newServerMetrics() *serverMetrics {
	reg := telemetry.NewRegistry()
	m := &serverMetrics{
		reg:      reg,
		requests: make(map[string]*telemetry.Counter),
		errors:   make(map[string]*telemetry.Counter),
		latency:  make(map[string]*telemetry.Histogram),
		errorsVec: reg.CounterVec("waved_http_errors_total",
			"Error responses written, by route.", "route"),
		responses: reg.CounterVec("waved_http_responses_total",
			"HTTP responses, by route and status code.", "route", "code"),
		inflight: reg.Gauge("waved_http_inflight_requests",
			"Requests currently being served."),
		cacheLookupSec: reg.Histogram("waved_cache_lookup_duration_seconds",
			"Plan-cache lookup latency on the tune path (resident hit through full predict).", nil),
		predictSec: reg.Histogram("waved_tuner_predict_duration_seconds",
			"Tuner model evaluation latency on cache misses.", nil),
		jobs: &jobs.Metrics{
			QueueWaitSec: reg.Histogram("waved_job_queue_wait_seconds",
				"Job admission-to-start latency (time spent queued).", nil),
			ExecSec: reg.Histogram("waved_job_execution_seconds",
				"Job execution time, start to finish.", nil),
			WaveSec: reg.Histogram("waved_pipeline_wave_seconds",
				"Pipeline wave duration, first admission to barrier resolution.", nil),
			EngineSec: reg.Histogram("waved_engine_measure_seconds",
				"Modeled engine executions inside jobs.", nil),
		},
		retrainSec: reg.Histogram("waved_retrain_train_seconds",
			"Retrain attempt duration: log read, challenger training, shadow evaluation.", nil),
	}
	reqVec := reg.CounterVec("waved_http_requests_total",
		"Requests handled, by route (counted inside the handler, like /v1/stats).", "route")
	latVec := reg.HistogramVec("waved_http_request_duration_seconds",
		"End-to-end request latency, by route.", nil, "route")
	// Every route label is pre-registered, so each appears on /metrics
	// from the first scrape and the label space stays bounded no matter
	// what paths are probed.
	for _, rt := range routes {
		m.requests[rt.label] = reqVec.With(rt.label)
		m.errors[rt.label] = m.errorsVec.With(rt.label)
		m.latency[rt.label] = latVec.With(rt.label)
	}
	return m
}

// registerCollectors surfaces the subsystem-owned counters (cache
// shards, model generations, retrainer, job queue, pipelines, uptime)
// as scrape-time callbacks, so /metrics renders them from the same
// source of truth /v1/stats and /v1/systems read instead of maintaining
// parallel counts. Called once from New, after the cache, retrainer and
// job manager exist.
func (s *Server) registerCollectors() {
	reg := s.m.reg
	reg.CollectFunc("waved_uptime_seconds", "Seconds since the server started.",
		telemetry.TypeGauge, nil, func(emit telemetry.Emit) {
			emit(time.Since(s.start).Seconds())
		})
	reg.CollectFunc("waved_cache_lookups_total", "Plan-cache lookups, by shard and outcome.",
		telemetry.TypeCounter, []string{"shard", "outcome"}, func(emit telemetry.Emit) {
			for i, st := range s.cache.ShardStats() {
				sh := strconv.Itoa(i)
				emit(float64(st.Hits), sh, "hit")
				emit(float64(st.Misses), sh, "miss")
				emit(float64(st.Coalesced), sh, "coalesced")
			}
		})
	reg.CollectFunc("waved_cache_evictions_total", "Plan-cache LRU evictions, by shard.",
		telemetry.TypeCounter, []string{"shard"}, func(emit telemetry.Emit) {
			for i, st := range s.cache.ShardStats() {
				emit(float64(st.Evictions), strconv.Itoa(i))
			}
		})
	reg.CollectFunc("waved_cache_predict_errors_total", "Failed predict fills, by shard.",
		telemetry.TypeCounter, []string{"shard"}, func(emit telemetry.Emit) {
			for i, st := range s.cache.ShardStats() {
				emit(float64(st.Errors), strconv.Itoa(i))
			}
		})
	reg.CollectFunc("waved_cache_entries", "Resident plans, by shard.",
		telemetry.TypeGauge, []string{"shard"}, func(emit telemetry.Emit) {
			for i, st := range s.cache.ShardStats() {
				emit(float64(st.Size), strconv.Itoa(i))
			}
		})
	reg.CollectFunc("waved_cache_invalidations_total",
		"Plans dropped by targeted invalidation (model promotions), by shard.",
		telemetry.TypeCounter, []string{"shard"}, func(emit telemetry.Emit) {
			for i, st := range s.cache.ShardStats() {
				emit(float64(st.Invalidations), strconv.Itoa(i))
			}
		})
	reg.CollectFunc("waved_model_generation",
		"Serving model generation, by system (1 = the factory champion, +1 per promotion).",
		telemetry.TypeGauge, []string{"system"}, func(emit telemetry.Emit) {
			for _, sys := range s.cfg.Systems {
				emit(float64(s.tuners.generation(sys.Name)), sys.Name)
			}
		})
	// With retraining off the two plain retrain counters read 0 and the
	// event family has no series.
	reg.CollectFunc("waved_retrain_cycles_total", "Retrainer passes over the system list.",
		telemetry.TypeCounter, nil, func(emit telemetry.Emit) {
			emit(float64(s.retrainStats().Cycles))
		})
	reg.CollectFunc("waved_retrain_events_total",
		"Retrain attempt outcomes, by system and event (trained, promoted, rejected, error).",
		telemetry.TypeCounter, []string{"system", "event"}, func(emit telemetry.Emit) {
			for name, st := range s.retrainStats().Systems {
				for _, e := range []struct {
					n     uint64
					event string
				}{{st.Retrains, "trained"}, {st.Promotions, "promoted"}, {st.Rejections, "rejected"}, {st.Errors, "error"}} {
					if e.n > 0 {
						emit(float64(e.n), name, e.event)
					}
				}
			}
		})
	reg.CollectFunc("waved_retrain_bad_rows_total", "Malformed observation rows consumed by retrain attempts.",
		telemetry.TypeCounter, nil, func(emit telemetry.Emit) {
			var n uint64
			for _, st := range s.retrainStats().Systems {
				n += st.BadRows
			}
			emit(float64(n))
		})
	reg.CollectFunc("waved_jobs_events_total", "Job lifecycle events, by event.",
		telemetry.TypeCounter, []string{"event"}, func(emit telemetry.Emit) {
			st := s.jobs.Stats()
			emit(float64(st.Submitted), "submitted")
			emit(float64(st.Rejected), "rejected")
			emit(float64(st.Succeeded), "succeeded")
			emit(float64(st.Failed), "failed")
			emit(float64(st.Canceled), "canceled")
			emit(float64(st.Refined), "refined")
		})
	reg.CollectFunc("waved_job_queue_depth", "Jobs admitted and waiting for a worker.",
		telemetry.TypeGauge, nil, func(emit telemetry.Emit) {
			emit(float64(s.jobs.Stats().Queued))
		})
	reg.CollectFunc("waved_jobs_running", "Jobs currently executing on workers.",
		telemetry.TypeGauge, nil, func(emit telemetry.Emit) {
			emit(float64(s.jobs.Stats().Running))
		})
	reg.CollectFunc("waved_training_rows_total", "Observations appended to the training log.",
		telemetry.TypeCounter, nil, func(emit telemetry.Emit) {
			emit(float64(s.jobs.Stats().TrainingRows))
		})
	reg.CollectFunc("waved_pipelines_events_total", "Pipeline lifecycle events, by event.",
		telemetry.TypeCounter, []string{"event"}, func(emit telemetry.Emit) {
			st := s.jobs.PipelineStats()
			emit(float64(st.Submitted), "submitted")
			emit(float64(st.Rejected), "rejected")
			emit(float64(st.Succeeded), "succeeded")
			emit(float64(st.Failed), "failed")
			emit(float64(st.Canceled), "canceled")
		})
	reg.CollectFunc("waved_pipelines_active", "Pipelines currently in a non-terminal state.",
		telemetry.TypeGauge, nil, func(emit telemetry.Emit) {
			emit(float64(s.jobs.PipelineStats().Active))
		})
	reg.CollectFunc("waved_pipeline_waves_resolved_total", "Pipeline waves that passed their barrier.",
		telemetry.TypeCounter, nil, func(emit telemetry.Emit) {
			emit(float64(s.jobs.PipelineStats().WavesResolved))
		})
	reg.CollectFunc("waved_pipeline_job_retries_total", "Failed-job resubmissions spent by retry policies.",
		telemetry.TypeCounter, nil, func(emit telemetry.Emit) {
			emit(float64(s.jobs.PipelineStats().JobRetries))
		})
}

// statusWriter wraps the ResponseWriter handed to handlers: it captures
// the status code for the response counters and carries the request's
// ID and route label, which writeError folds into error bodies and the
// error counters without changing its call sites.
type statusWriter struct {
	http.ResponseWriter
	route     string
	requestID string
	status    int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Flush forwards streaming support the wrapper would otherwise hide.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// withTelemetry is the outermost middleware: request ID, in-flight
// gauge, latency and response series, the structured request log line,
// and — when slow-request logging is on — the http.request span whose
// tree is dumped for slow requests. With it off no root span is opened,
// so the spans below are nil no-ops and allocate nothing.
func (s *Server) withTelemetry(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		// The canonical spelling of X-Request-ID skips a per-call
		// canonicalization of the key.
		id := r.Header.Get("X-Request-Id")
		if id == "" {
			id = telemetry.NewRequestID()
		}
		ctx := telemetry.WithRequestID(r.Context(), id)
		var span *telemetry.Span
		if s.cfg.SlowRequest > 0 {
			ctx, span = telemetry.StartRootSpan(ctx, "http.request")
			span.Annotate("method", r.Method).
				Annotate("path", r.URL.Path).Annotate("request_id", id)
		}
		w.Header().Set("X-Request-Id", id)
		// The matched route's handler relabels sw; the mux's own replies
		// (path-cleaning redirects) stay under "other".
		sw := &statusWriter{ResponseWriter: w, route: "other", requestID: id}

		s.m.inflight.Add(1)
		next.ServeHTTP(sw, r.WithContext(ctx))
		s.m.inflight.Add(-1)

		route := sw.route
		if span != nil {
			// Guarded: boxing the label allocates even for a nil span.
			span.Annotate("route", route)
		}
		span.End()
		dur := time.Since(start)
		status := sw.status
		if status == 0 {
			// The handler never wrote (e.g. a 200 with an empty body
			// via implicit WriteHeader on hijack-free completion).
			status = http.StatusOK
		}
		s.m.latency[route].Observe(dur.Seconds())
		s.m.responses.With(route, strconv.Itoa(status)).Inc()
		if s.cfg.Logger.Enabled(ctx, slog.LevelInfo) {
			s.cfg.Logger.LogAttrs(ctx, slog.LevelInfo, "request",
				slog.String("request_id", id), slog.String("route", route),
				slog.String("method", r.Method), slog.String("path", r.URL.Path),
				slog.Int("status", status), slog.Duration("dur", dur))
		}
		if span != nil && dur >= s.cfg.SlowRequest {
			span.Annotate("status", status)
			s.cfg.Logger.Info("slow request", "request_id", id, "method", r.Method,
				"path", r.URL.Path, "dur", dur, "threshold", s.cfg.SlowRequest,
				"spans", span.Render())
		}
	})
}
