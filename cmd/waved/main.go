// Command waved is the tuning daemon: it serves tuned wavefront
// configurations over HTTP ("tuning as a service") and runs whole tuned
// wavefront jobs asynchronously. Predictions are cached per (system,
// instance) with concurrent misses deduplicated, so heavy traffic
// asking for the same workloads costs one tuner evaluation per distinct
// instance. The cache lives in process memory: after a restart or a
// promotion it refills on demand from the tuner being served. Nothing
// trains at start-up: as in the paper, the tuners are trained offline
// and the daemon only predicts with them. Every served system's tuner
// is loaded once when the server is built, before it listens, from the
// factory tuners built into the binary (trained on the full Table 3
// space) or from -tuners dir when given (files written by wavetrain
// -save); a system whose load fails reports failed and errors its
// requests while the others serve.
// Jobs run on a bounded worker pool behind a bounded priority queue;
// jobs that opt into refinement hill-climb around the cached prediction
// (12 probes at most) and append the measured outcome to the -train-log
// directory (per-system search-CSV files for wavetrain -from).
//
// With -train-log set, a background retrainer closes the feedback loop:
// it watches the observation logs, and once enough rows accumulate
// (-retrain-min-obs, or an age threshold) it shadow-trains a challenger
// tuner on three quarters of the whole log, scores champion against
// challenger on the held-out quarter, and atomically promotes the winner
// — invalidating only that system's cached plans. Promotions are logged with
// generation IDs and surface in GET /v1/systems (generation), GET
// /v1/stats (retrain block) and /metrics (waved_model_generation,
// waved_retrain_*). -retrain-off
// disables the loop.
//
// Jobs can be chained into wave-DAG pipelines (POST /v1/pipelines):
// ordered waves of jobs where a wave's jobs run in parallel and wave
// N+1 starts only after wave N resolves, with per-wave failure policy
// (abort / continue / retry-budget).
//
// Usage:
//
//	waved [-addr :8080] [-systems i7-2600K,i3-540] [-tuners dir]
//	      [-cache 512] [-workers 4] [-queue-depth 64]
//	      [-train-log dir] [-max-pipelines 16]
//	      [-retrain-off] [-retrain-interval 5m] [-retrain-min-obs 32]
//	      [-log-format text|json] [-slow-request 0] [-slow-job 0]
//	      [-pprof-addr localhost:6060]
//
// Endpoints:
//
//	POST   /v1/tune            {"system":"i7-2600K","dim":1900,"app":"nash","params":{"rounds":2}}
//	POST   /v1/tune/batch      {"system":"i7-2600K","items":[{"dim":1900,"app":"nash"},...]} (64 items at most)
//	POST   /v1/jobs            {"system":"i7-2600K","dim":1900,"app":"nash","refine":true}
//	GET    /v1/jobs            job records (filter: ?state=queued&system=i7-2600K)
//	GET    /v1/jobs/{id}       poll one job
//	DELETE /v1/jobs/{id}       cancel a queued or running job
//	POST   /v1/pipelines       {"system":"i7-2600K","waves":[{"jobs":[...]},{"after":["wave-0"],"jobs":[...]}]}
//	GET    /v1/pipelines       pipeline records (filter: ?state=wave-running)
//	GET    /v1/pipelines/{id}  poll one pipeline (per-wave states, job IDs)
//	DELETE /v1/pipelines/{id}  cancel a pipeline; DELETE /v1/pipelines prunes finished records
//	GET    /v1/apps            application catalog (names, tsize/dsize, parameter schemas)
//	GET    /v1/systems         served systems, tuner states and model generations
//	GET    /v1/stats           cache, job, pipeline, retrain and request counters, uptime
//	GET    /metrics            the same counters in Prometheus text format
//	GET    /healthz            liveness probe
//
// Observability: the daemon logs through log/slog (-log-format selects
// its text or JSON handler). Every request is logged as one line
// stamped with an X-Request-ID that is echoed in the response header,
// error bodies and job records; job, pipeline and retrain decisions are
// lines with attributes (job_id, pipeline_id, system, generation);
// requests or jobs slower than -slow-request / -slow-job log their
// trace-span tree as a spans attribute; -pprof-addr serves
// net/http/pprof on a side listener kept off the public API address.
//
// Named applications come from the registry (internal/apps, public
// wavefront.RegisterApp); GET /v1/apps lists everything this daemon
// accepts, including any workloads registered by embedding code.
//
// SIGINT/SIGTERM shut the server down gracefully: in-flight requests and
// jobs drain, and the training log is closed.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/wavefront"
)

// onlyContextErrs reports whether err (possibly an errors.Join tree)
// consists solely of context cancellation/deadline errors.
func onlyContextErrs(err error) bool {
	if err == nil {
		return true
	}
	if u, ok := err.(interface{ Unwrap() []error }); ok {
		for _, e := range u.Unwrap() {
			if !onlyContextErrs(e) {
				return false
			}
		}
		return true
	}
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("waved: ")
	addr := flag.String("addr", ":8080", "listen address")
	systems := flag.String("systems", "", "comma-separated systems to serve (default: all Table 4 systems)")
	tunersDir := flag.String("tuners", "", "directory of <system>.json tuner files written by wavetrain -save (default: the factory tuners built in)")
	cacheSize := flag.Int("cache", 0, "plan-cache capacity (0 = default)")
	workers := flag.Int("workers", 0, "job worker pool size (0 = default)")
	queueDepth := flag.Int("queue-depth", 0, "job queue bound; overflow answers 429 (0 = default)")
	trainLog := flag.String("train-log", "", "directory for refined jobs' measured observations (per-system CSVs for wavetrain -from)")
	retrainOff := flag.Bool("retrain-off", false, "disable background retraining even when -train-log is set")
	retrainInterval := flag.Duration("retrain-interval", 0, "background retrainer polling period (0 = default; observations wake it early)")
	retrainMinObs := flag.Int("retrain-min-obs", 0, "observations that trigger a retrain (0 = default)")
	maxPipelines := flag.Int("max-pipelines", 0, "max concurrently active pipelines; overflow answers 429 (0 = default)")
	logFormat := flag.String("log-format", "text", "log line encoding: text (key=value) or json")
	slowRequest := flag.Duration("slow-request", 0, "log the trace-span tree of requests at least this slow (0 = off)")
	slowJob := flag.Duration("slow-job", 0, "log the trace-span tree of jobs and pipelines at least this slow (0 = off)")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this side address (e.g. localhost:6060; empty = off)")
	flag.Parse()

	var handler slog.Handler
	switch *logFormat {
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	default:
		log.Fatalf("unknown log format %q (want text or json)", *logFormat)
	}
	logger := slog.New(handler)

	cfg := wavefront.TuningConfig{
		CacheSize: *cacheSize,
		Jobs: wavefront.JobOptions{
			Workers:        *workers,
			QueueDepth:     *queueDepth,
			TrainingLogDir: *trainLog,
			MaxPipelines:   *maxPipelines,
			SlowJob:        *slowJob,
		},
		Retrain: wavefront.RetrainOptions{
			Off:             *retrainOff,
			Interval:        *retrainInterval,
			MinObservations: *retrainMinObs,
		},
		Logger:      logger,
		SlowRequest: *slowRequest,
	}
	if *systems != "" {
		for _, name := range strings.Split(*systems, ",") {
			name = strings.TrimSpace(name)
			sys, ok := wavefront.SystemByName(name)
			if !ok {
				log.Fatalf("unknown system %q", name)
			}
			cfg.Systems = append(cfg.Systems, sys)
		}
	}
	if *tunersDir != "" {
		cfg.Tuners = wavefront.NewDirTunerSource(os.DirFS(*tunersDir))
	}

	srv, err := wavefront.NewTuningServer(cfg)
	if err != nil {
		log.Fatal(err)
	}

	if *pprofAddr != "" {
		// pprof rides a side listener, never the public API address: the
		// default ServeMux (which net/http/pprof registers on) is not
		// used by the daemon, so a dedicated mux keeps this explicit.
		pm := http.NewServeMux()
		pm.HandleFunc("/debug/pprof/", pprof.Index)
		pm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			logger.Info("pprof listening", "addr", *pprofAddr)
			if perr := http.ListenAndServe(*pprofAddr, pm); perr != nil {
				logger.Error("pprof server", "err", perr)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe(*addr) }()

	select {
	case err := <-done:
		if err != nil {
			log.Fatal(err)
		}
	case <-ctx.Done():
		stop()
		logger.Info("shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			// A drain cut short by the deadline is a documented outcome
			// of stopping under load, not a failed shutdown: exit
			// cleanly so supervisors don't flag the stop. Anything else
			// in the joined error — a failed training-log close, say — is
			// a real failure and must surface in the exit code.
			if !onlyContextErrs(err) {
				log.Fatalf("shutdown failed: %v", err)
			}
			logger.Warn("shutdown incomplete", "err", err)
		}
		if err := <-done; err != nil {
			log.Fatal(err)
		}
	}
}
