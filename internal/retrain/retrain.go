package retrain

import (
	"context"
	"fmt"
	"log/slog"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/telemetry"
)

// Loop thresholds. DefaultInterval and DefaultMinObservations fill zero
// Config fields. DefaultMaxAge is the age
// threshold: once the oldest unconsumed row has waited this long, a
// retrain starts even below MinObservations, so a trickle of
// observations is not ignored forever.
const (
	DefaultInterval        = 5 * time.Minute
	DefaultMinObservations = 32
	DefaultMaxAge          = 30 * time.Minute
)

// The champion/challenger split: holdout is the fraction of the
// accumulated observations held out for the comparison (see
// core.SplitHoldout), and holdoutSeed drives the deterministic split.
const (
	holdout     = 0.25
	holdoutSeed = 1
)

// Config parameterizes a Retrainer. Champion and Promote are required;
// everything else has defaults.
type Config struct {
	// Systems are the platforms whose observation logs are watched.
	Systems []hw.System
	// LogDir is the observation-log directory (core.ObservationLog's
	// dir): one "<system>.csv" per system, with the retrainer's
	// "<system>.csv.ckpt" read-position checkpoints alongside.
	LogDir string

	// Interval is the polling period of the loop; Notify short-circuits
	// it when observations land.
	Interval time.Duration
	// MinObservations is the size threshold: a retrain starts once this
	// many unconsumed rows have accumulated (DefaultMaxAge is the age
	// threshold).
	MinObservations int

	// Champion resolves the currently serving predictor.
	Champion func(sys hw.System) (core.Predictor, error)
	// Promote atomically installs a winning challenger, drops the
	// system's cached plans, and returns the new model generation and
	// how many plans went; the retrainer logs both and keeps neither
	// (the caller's champion table owns the generation). It runs under
	// the lock Stats takes, so once the new champion serves, no snapshot
	// misses its promotion; it must not call Stats.
	Promote func(system string, t core.Predictor) (gen uint64, dropped int)

	// Logger receives one line per retrain decision; nil discards them.
	Logger *slog.Logger
	// TrainSec, when set, observes the duration of each retrain attempt
	// (log read, challenger training, shadow evaluation). Every other
	// retrain count is in Stats.
	TrainSec *telemetry.Histogram
}

// SystemStatus is one system's retraining state, as surfaced through
// /v1/stats.
type SystemStatus struct {
	// LastVerdict is the outcome of the last retrain attempt: a verdict
	// reason, or "error: ..." when the attempt failed outright.
	LastVerdict string `json:"last_verdict,omitempty"`
	// Verdict is the full guardrail verdict of the last completed
	// comparison.
	Verdict *Verdict `json:"verdict,omitempty"`
	// LastGenerationID is the request-ID-style identifier of the last
	// retrain attempt, correlating stats with decision log lines.
	LastGenerationID string `json:"last_generation_id,omitempty"`
	// LastPromotionUnix is when the last promotion landed (Unix
	// seconds); 0 when never.
	LastPromotionUnix int64 `json:"last_promotion_unix,omitempty"`
	// PendingRows counts unconsumed observation rows seen by the most
	// recent scan (rows accumulate toward MinObservations).
	PendingRows int `json:"pending_rows"`
	// Retrains, Promotions, Rejections, Errors count retrain attempts
	// and their outcomes.
	Retrains   uint64 `json:"retrains"`
	Promotions uint64 `json:"promotions"`
	Rejections uint64 `json:"rejections"`
	Errors     uint64 `json:"errors"`
	// BadRows counts malformed rows consumed by retrain attempts.
	BadRows uint64 `json:"bad_rows"`
}

// Stats is a snapshot of the retrainer.
type Stats struct {
	// Cycles counts completed RunOnce passes.
	Cycles uint64 `json:"cycles"`
	// Systems maps system name to its retraining status.
	Systems map[string]SystemStatus `json:"systems"`
}

// sysState is one system's loop-internal state.
type sysState struct {
	cursor       *core.LogCursor
	firstPending time.Time
	status       SystemStatus
}

// Retrainer is the background champion/challenger loop. Construct with
// New, call Start to run it, Stop to drain it; Notify wakes it early
// when an observation lands. RunOnce is the deterministic single pass
// used by the loop and by tests.
type Retrainer struct {
	cfg Config

	// runMu serializes passes: the timer loop, Notify wake-ups and
	// direct RunOnce calls never train concurrently.
	runMu  sync.Mutex
	cycles atomic.Uint64

	// mu guards the state map and the statuses inside.
	mu sync.Mutex
	st map[string]*sysState

	wake chan struct{}
	stop chan struct{}
	done chan struct{}

	startOnce sync.Once
	stopOnce  sync.Once
}

// New validates cfg, fills defaults, and returns an unstarted
// Retrainer.
func New(cfg Config) (*Retrainer, error) {
	if len(cfg.Systems) == 0 {
		return nil, fmt.Errorf("retrain: no systems")
	}
	if cfg.LogDir == "" {
		return nil, fmt.Errorf("retrain: empty log directory")
	}
	if cfg.Champion == nil || cfg.Promote == nil {
		return nil, fmt.Errorf("retrain: Champion and Promote are required")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultInterval
	}
	if cfg.MinObservations <= 0 {
		cfg.MinObservations = DefaultMinObservations
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	r := &Retrainer{
		cfg:  cfg,
		st:   make(map[string]*sysState),
		wake: make(chan struct{}, 1),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	for _, sys := range cfg.Systems {
		path := core.ObservationLogPath(cfg.LogDir, sys.Name)
		r.st[sys.Name] = &sysState{cursor: core.NewLogCursor(path)}
	}
	return r, nil
}

// Start launches the background loop. Safe to call once; use Stop to
// end it.
func (r *Retrainer) Start() {
	r.startOnce.Do(func() { go r.loop() })
}

// Stop ends the loop and waits for any in-progress pass to finish. Safe
// to call more than once, and before Start (in which case it only marks
// the retrainer stopped).
func (r *Retrainer) Stop() {
	r.stopOnce.Do(func() { close(r.stop) })
	r.startOnce.Do(func() { close(r.done) }) // never started: nothing to wait for
	<-r.done
}

// Notify wakes the loop early — called when an observation lands, so a
// burst of traffic reaches the size threshold without waiting out the
// polling interval. Never blocks.
func (r *Retrainer) Notify(system string) {
	select {
	case r.wake <- struct{}{}:
	default:
	}
}

// loop is the background goroutine: a pass per interval tick or Notify
// wake-up, whichever comes first.
func (r *Retrainer) loop() {
	defer close(r.done)
	t := time.NewTimer(r.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
		case <-r.wake:
		}
		r.RunOnce(context.Background())
		if !t.Stop() {
			select {
			case <-t.C:
			default:
			}
		}
		t.Reset(r.cfg.Interval)
	}
}

// RunOnce performs one full pass: scan every system's observation log,
// and for each system over its size or age threshold, run a retrain
// attempt (train challenger, shadow-evaluate, maybe promote). Passes
// are serialized; ctx cancels between systems.
func (r *Retrainer) RunOnce(ctx context.Context) {
	r.runMu.Lock()
	defer r.runMu.Unlock()
	for _, sys := range r.cfg.Systems {
		select {
		case <-ctx.Done():
			return
		default:
		}
		r.runSystem(sys)
	}
	r.cycles.Add(1)
}

// runSystem scans one system's log and retrains when a threshold trips.
// The scan is only committed after a retrain attempt ran (successful or
// not): its rows are consumed by the attempt, which is what keeps
// rotation or restart from ever re-training on the same rows, while
// below-threshold scans stay read-only so pending rows keep counting.
func (r *Retrainer) runSystem(sys hw.System) {
	r.mu.Lock()
	st := r.st[sys.Name]
	r.mu.Unlock()

	scan, err := st.cursor.Scan()
	now := time.Now()
	if err != nil {
		r.finishAttempt(sys.Name, st, scan, nil, fmt.Errorf("scan: %w", err), Verdict{}, "")
		return
	}
	r.mu.Lock()
	if scan.NewRows == 0 && scan.BadRows == 0 {
		st.firstPending = time.Time{}
		st.status.PendingRows = 0
		r.mu.Unlock()
		return
	}
	if st.firstPending.IsZero() {
		st.firstPending = now
	}
	st.status.PendingRows = scan.NewRows
	trigger := scan.NewRows >= r.cfg.MinObservations ||
		(scan.NewRows > 0 && now.Sub(st.firstPending) >= DefaultMaxAge)
	r.mu.Unlock()
	if !trigger {
		return
	}

	genID := telemetry.NewRequestID()
	start := time.Now()
	verdict, challenger, err := r.evaluate(sys)
	if r.cfg.TrainSec != nil {
		r.cfg.TrainSec.Observe(time.Since(start).Seconds())
	}

	if err != nil || !verdict.Promote {
		challenger = nil
	}
	promotedGen, dropped := r.finishAttempt(sys.Name, st, scan, challenger, err, verdict, genID)
	r.logDecision(sys.Name, genID, verdict, err, promotedGen, dropped)
}

// evaluate reads the accumulated log, trains the challenger on the
// training split, and scores champion vs challenger on the held-out
// split. Returns the guardrail verdict and the challenger.
func (r *Retrainer) evaluate(sys hw.System) (Verdict, core.Predictor, error) {
	f, err := os.Open(core.ObservationLogPath(r.cfg.LogDir, sys.Name))
	if err != nil {
		return Verdict{}, nil, fmt.Errorf("open log: %w", err)
	}
	sr, _, err := core.ReadObservationLog(f, sys.Name)
	f.Close()
	if err != nil {
		return Verdict{}, nil, fmt.Errorf("read log: %w", err)
	}
	champion, err := r.cfg.Champion(sys)
	if err != nil {
		return Verdict{}, nil, fmt.Errorf("champion: %w", err)
	}
	trainSet, held := core.SplitHoldout(sr, holdout, holdoutSeed)
	// Only measured, uncensored rows can score a prediction.
	kept := held[:0]
	for _, p := range held {
		if p.RTimeNs > 0 && !p.Censored {
			kept = append(kept, p)
		}
	}
	held = kept
	// Observation logs are sparse, irregular grids: unlike factory
	// sweeps there is nothing to decimate.
	opts := core.DefaultTrainOptions()
	opts.Stride = 1
	challenger, err := core.Train(trainSet, opts)
	if err != nil {
		return Verdict{}, nil, fmt.Errorf("train: %w", err)
	}
	champErrs, err := predictionErrors(champion, held)
	if err != nil {
		return Verdict{}, nil, fmt.Errorf("champion predict: %w", err)
	}
	challErrs, err := predictionErrors(challenger, held)
	if err != nil {
		return Verdict{}, nil, fmt.Errorf("challenger predict: %w", err)
	}
	return Decide(champErrs, challErrs), challenger, nil
}

// predictionErrors scores a predictor on held-out observations: for
// each, the absolute relative error between the modeled runtime of the
// predictor's own decision and the measured runtime. Per-instance
// predictions are memoized — a holdout usually repeats few instances.
func predictionErrors(t core.Predictor, held []core.Point) ([]float64, error) {
	memo := make(map[string]float64, len(held))
	out := make([]float64, 0, len(held))
	for _, p := range held {
		key := p.Inst.CacheKey()
		rt, ok := memo[key]
		if !ok {
			_, predicted, _, err := t.PredictTimed(p.Inst)
			if err != nil {
				return nil, err
			}
			rt = predicted
			memo[key] = rt
		}
		diff := rt - p.RTimeNs
		if diff < 0 {
			diff = -diff
		}
		out = append(out, diff/p.RTimeNs)
	}
	return out, nil
}

// finishAttempt updates a system's status after a retrain attempt (or a
// scan failure) and commits the consumed scan. A non-nil winner is
// promoted, and the system's cached plans dropped, inside the critical
// section that records the outcome, so no Stats snapshot taken while
// the new champion serves misses its promotion. It returns the
// generation promoted to (0 when none) and the number of plans dropped,
// for the decision log only.
func (r *Retrainer) finishAttempt(system string, st *sysState, scan core.LogScan, winner core.Predictor, err error, v Verdict, genID string) (promotedGen uint64, dropped int) {
	if err == nil || genID != "" {
		// The attempt consumed the scanned rows (even a failed attempt:
		// retrying the same poisoned rows forever would wedge the loop) —
		// commit the cursor so they are never re-trained on.
		if cerr := st.cursor.Commit(scan); cerr != nil {
			r.cfg.Logger.Error("retrain checkpoint", "system", system, "err", cerr)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &st.status
	st.firstPending = time.Time{}
	s.PendingRows = 0
	s.BadRows += uint64(scan.BadRows)
	if genID != "" {
		s.LastGenerationID = genID
		s.Retrains++
	}
	switch {
	case err != nil:
		s.Errors++
		s.LastVerdict = "error: " + err.Error()
	case winner != nil:
		promotedGen, dropped = r.cfg.Promote(system, winner)
		s.Promotions++
		s.LastVerdict = v.Reason
		s.Verdict = &v
		s.LastPromotionUnix = time.Now().Unix()
	default:
		s.Rejections++
		s.LastVerdict = v.Reason
		s.Verdict = &v
	}
	return promotedGen, dropped
}

// logDecision emits the one-line decision log.
func (r *Retrainer) logDecision(system, genID string, v Verdict, err error, gen uint64, dropped int) {
	switch {
	case err != nil:
		r.cfg.Logger.Error("retrain error", "system", system, "gen_id", genID, "err", err)
	case gen > 0:
		r.cfg.Logger.Info("retrain promote", "system", system, "gen_id", genID,
			"generation", gen, "invalidated", dropped, "verdict", v)
	default:
		r.cfg.Logger.Info("retrain reject", "system", system, "gen_id", genID, "verdict", v)
	}
}

// Stats returns a snapshot of the retrainer's state.
func (r *Retrainer) Stats() Stats {
	out := Stats{Cycles: r.cycles.Load(), Systems: make(map[string]SystemStatus, len(r.cfg.Systems))}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, st := range r.st {
		s := st.status
		if s.Verdict != nil {
			v := *s.Verdict
			s.Verdict = &v
		}
		out.Systems[name] = s
	}
	return out
}
