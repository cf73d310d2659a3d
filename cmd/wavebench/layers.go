package main

// The traced run: per-layer metrics of every module, timed from the
// benchmark's own files around calls into each module's functions. It
// replays the workloads' seeded streams in process, against the same
// service the daemon runs, and records a span per call. This is the one
// file that imports the repository's internal packages, so a refactor
// behind them leaves the rest of the benchmark alone.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/hw"
	"repro/internal/jobs"
	"repro/internal/plan"
	"repro/internal/service"
	"repro/internal/tunecache"
)

// traceShare is the part of the run's window each paced replay of the
// traced run lasts.
const traceShare = 0.3

// runLayers runs the traced per-layer suite. The workload picks the tune
// stream the serving replay uses (tune-cold's Zipf stream, or tune-hot's
// uniform one); every other layer runs the same calls for every
// workload, so each traced run reports every per-layer metric.
func runLayers(ctx context.Context, e *env, res *result, rec *recorder) error {
	hot, err := hotKeys()
	if err != nil {
		return err
	}
	preds, err := trainModels(e, rec, res)
	if err != nil {
		return err
	}
	srv, err := service.New(service.Config{Tuners: service.NewStaticSource(preds...), CacheSize: cacheCapacity})
	if err != nil {
		return err
	}
	defer shutdown(srv)
	steps := []func() error{
		func() error { return replayTunes(ctx, e, srv, hot, res.Workload == wlTuneCold, rec, res) },
		func() error { return hitPath(ctx, e, srv, hot, rec, res) },
		func() error { return missPath(ctx, e, preds, rec, res) },
		func() error { return loopback(ctx, e, srv, hot, rec, res) },
		func() error { return refineLayers(ctx, e, srv, preds, hot, rec, res) },
		func() error { return jobLayers(ctx, e, preds, hot, res) },
		func() error { return hostLayers(ctx, e, rec, res) },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
	}
	counts, total, err := countLOC(e.root)
	if err != nil {
		return err
	}
	for _, p := range locPackages {
		res.set("loc.nontest."+p, float64(counts[p]), "lines")
	}
	res.set("loc.nontest.total", float64(total), "lines")
	return nil
}

func shutdown(srv *service.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = srv.Shutdown(ctx) // nothing is persisted; a cut-short drain loses nothing
}

// serve runs one request through h in process.
func serve(h http.Handler, method, path string, body []byte) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, newRequest(method, path, body))
	return w
}

func newRequest(method, path string, body []byte) *http.Request {
	r := httptest.NewRequest(method, path, bytes.NewReader(body))
	r.Header.Set("Content-Type", "application/json")
	return r
}

// trainModels trains a tree predictor per system the way the daemon's
// lazy source does, timing the first system's search and fit.
func trainModels(e *env, rec *recorder, res *result) ([]core.Predictor, error) {
	var preds []core.Predictor
	for i, name := range systemNames {
		sys, ok := hw.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown system %q", name)
		}
		sp := rec.start("core.search", 0, 0)
		sr, err := core.Exhaustive(sys, e.space, core.SearchOptions{})
		search := sp.end()
		if err != nil {
			return nil, err
		}
		sp = rec.start("core.fit", 0, 0)
		p, err := core.TrainPredictor(core.KindTree, sr, core.TrainOptions{})
		fit := sp.end()
		if err != nil {
			return nil, err
		}
		if i == 0 {
			res.set("core.search_s", search.Seconds(), "s", "search of "+name)
			res.set("core.fit_s", fit.Seconds(), "s", "tree fit of "+name)
			res.set("engine.estimates_per_search", float64(e.space.Size(sys)), "count")
		}
		res.ops(1, 0)
		preds = append(preds, p)
	}
	return preds, nil
}

// replayTunes replays a tune workload's open-loop stream at its frozen
// rate through the service handler in process, and reads the cache
// counters the window moved.
func replayTunes(ctx context.Context, e *env, srv *service.Server, hot []*tuneKey, cold bool, rec *recorder, res *result) error {
	universe := coldKeys{}
	src := func(salt uint64) keySource { return newUniformKeys(hot, e.seed, salt) }
	rate, warm := hotRate, 500*time.Millisecond
	if cold {
		src = func(salt uint64) keySource { return newZipfKeys(universe, e.seed, salt) }
		rate, warm = coldRate, time.Second
	}
	rate *= e.rateScale
	win := time.Duration(traceShare * float64(e.window))
	warmOps, err := schedule(e.seed, 10, rate, warm, 0, tuneMix, src(10))
	if err != nil {
		return err
	}
	winOps, err := schedule(e.seed, 11, rate, win, 0, tuneMix, src(11))
	if err != nil {
		return err
	}
	h := srv.Handler()
	replay := func(ops []op) loopResult {
		r := openLoop(ctx, nil, dueTimes(ops), func(_ context.Context, _ *conn, i int) error {
			path, want := opPath(ops[i].kind)
			sp := rec.start("replay"+strings.ReplaceAll(path, "/", "."), 0, 0)
			w := serve(h, http.MethodPost, path, ops[i].body)
			sp.end()
			if w.Code != want {
				return fmt.Errorf("POST %s: status %d: %.200s", path, w.Code, w.Body)
			}
			return nil
		})
		res.ops(len(r.OK), r.failed())
		return r
	}
	if !cold {
		for _, k := range hot {
			if w := serve(h, http.MethodPost, "/v1/tune", k.body); w.Code != http.StatusOK {
				return fmt.Errorf("warming %s: status %d", k.body, w.Code)
			}
		}
	}
	replay(warmOps)
	before := srv.Cache().Stats()
	r := replay(winOps)
	after := srv.Cache().Stats()
	lookups := float64(after.Lookups() - before.Lookups())
	res.set("tunecache.hit_ratio", float64(after.Hits-before.Hits)/lookups, "ratio", fmt.Sprintf("of %.0f lookups", lookups))
	res.set("tunecache.coalesced_ratio", float64(after.Coalesced-before.Coalesced)/lookups, "ratio")
	res.set("tunecache.evictions_per_s", float64(after.Evictions-before.Evictions)/win.Seconds(), "1/s")
	lag := summarize(r.lagMicros())
	res.set("gen.lag_p99_us", lag.Tail, "us", lag.tailNote())
	return nil
}

// tuneResponse is the reply the service encodes for a served plan.
func tuneResponse(system string, inst plan.Instance, p tunecache.Plan, outcome tunecache.Outcome) service.TuneResponse {
	rows, cols := inst.Shape()
	resp := service.TuneResponse{
		System:   system,
		Instance: service.TuneInstance{Rows: rows, Cols: cols, TSize: inst.TSize, DSize: inst.DSize},
		Serial:   p.Serial,
		Params: service.TuneParams{CPUTile: p.Par.CPUTile, Band: p.Par.Band, GPUCount: p.Par.GPUCount(),
			GPUTile: p.Par.GPUTile, Halo: p.Par.Halo},
		RTimeSec:  p.RTimeNs / 1e9,
		SerialSec: p.SerialNs / 1e9,
		Cache:     outcome.String(),
	}
	if p.RTimeNs > 0 {
		resp.Speedup = p.SerialNs / p.RTimeNs
	}
	return resp
}

// resolve is the app-registry step of the tune handler: look the app
// up, derive the instance, validate and normalize it.
func resolve(req service.TuneRequest) (plan.Instance, error) {
	a, ok := apps.Lookup(req.App)
	if !ok {
		return plan.Instance{}, apps.UnknownAppError(req.App)
	}
	rows, cols := plan.Instance{Dim: req.Dim, Rows: req.Rows, Cols: req.Cols}.Shape()
	inst, _, err := a.InstanceFor(rows, cols, apps.Values(req.Params))
	if err != nil {
		return inst, err
	}
	if err := inst.Validate(); err != nil {
		return inst, err
	}
	return inst.Normalize(), nil
}

// walkTune takes one hit request through the tune handler's steps, one
// span per layer: decode, resolve, cache lookup, encode.
func walkTune(ctx context.Context, cache *tunecache.Cache, k *tuneKey, rec *recorder, req int64) error {
	root := rec.start("layers.tune", 0, req)
	sp := rec.start("service.decode", root.id(), req)
	var tr service.TuneRequest
	dec := json.NewDecoder(bytes.NewReader(k.body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&tr)
	sp.end()
	if err != nil {
		return err
	}
	sp = rec.start("apps.resolve", root.id(), req)
	inst, err := resolve(tr)
	sp.end()
	if err != nil {
		return err
	}
	sp = rec.start("tunecache.hit", root.id(), req)
	p, outcome, err := cache.GetCtx(ctx, tr.System, inst)
	sp.end()
	if err != nil || outcome != tunecache.Hit {
		return fmt.Errorf("%s: lookup %v, %v; want a hit", k.body, outcome, err)
	}
	sp = rec.start("service.encode", root.id(), req)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ") // as the service's writeJSON does
	err = enc.Encode(tuneResponse(tr.System, inst, p, outcome))
	sp.end()
	root.end()
	return err
}

// allocsPer returns the heap allocations per call of n prepared calls;
// prep builds call i (its request, recorder) outside the count.
func allocsPer(n int, prep func(i int) func()) float64 {
	calls := make([]func(), n)
	for i := range calls {
		calls[i] = prep(i)
	}
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for _, call := range calls {
		call()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

// hitPath times the served hit: the whole handler into a recorder (no
// socket), each of its steps, the same handler untraced, and the
// allocations of each.
func hitPath(ctx context.Context, e *env, srv *service.Server, hot []*tuneKey, rec *recorder, res *result) error {
	h, cache := srv.Handler(), srv.Cache()
	for _, k := range hot {
		if _, _, err := cache.Get(k.req.System, k.inst); err != nil {
			return err
		}
	}
	n := e.layerOps
	var untraced []float64
	for i := 0; i < n; i++ {
		k := hot[i%len(hot)]
		id := int64(i + 1)
		for _, r := range []*recorder{rec, nil} {
			req, w := newRequest(http.MethodPost, "/v1/tune", k.body), httptest.NewRecorder()
			sp := r.start("service.handler", 0, id)
			h.ServeHTTP(w, req)
			d := sp.end()
			if w.Code != http.StatusOK || !bytes.Contains(w.Body.Bytes(), []byte(`"hit"`)) {
				return fmt.Errorf("%s: status %d, want a 200 hit: %.200s", k.body, w.Code, w.Body)
			}
			if r == nil {
				untraced = append(untraced, us(d))
			}
		}
		if err := walkTune(ctx, cache, k, rec, id); err != nil {
			return err
		}
	}
	res.ops(3*n, 0)
	handler := rec.p50("service.handler")
	decode, resolveUs, hit, encode := rec.p50("service.decode"), rec.p50("apps.resolve"), rec.p50("tunecache.hit"), rec.p50("service.encode")
	res.set("service.handler_us", handler, "us", fmt.Sprintf("hit, p50 of %d", n))
	res.set("service.decode_us", decode, "us")
	res.set("apps.resolve_us", resolveUs, "us")
	res.set("tunecache.hit_us", hit, "us")
	res.set("service.encode_us", encode, "us")
	res.set("service.unattributed_us", handler-(decode+resolveUs+hit+encode), "us", "handler - (decode+resolve+hit+encode)")
	res.set("trace.overhead_ratio", handler/median(untraced), "ratio", "traced / untraced handler p50")
	res.set("service.handler_allocs", allocsPer(n, func(i int) func() {
		req, w := newRequest(http.MethodPost, "/v1/tune", hot[i%len(hot)].body), httptest.NewRecorder()
		return func() { h.ServeHTTP(w, req) }
	}), "count")
	res.set("tunecache.hit_allocs", allocsPer(n, func(i int) func() {
		k := hot[i%len(hot)]
		return func() { _, _, _ = cache.GetCtx(ctx, k.req.System, k.inst) }
	}), "count")

	// Batches of batchItems resident keys.
	nb := max(n/16, 10)
	batches, err := schedule(e.seed, 13, 0, 0, nb, opMix{opBatch: 1}, newUniformKeys(hot, e.seed, 13))
	if err != nil {
		return err
	}
	for i, o := range batches {
		req, w := newRequest(http.MethodPost, "/v1/tune/batch", o.body), httptest.NewRecorder()
		sp := rec.start("service.batch_handler", 0, int64(n+i+1))
		h.ServeHTTP(w, req)
		sp.end()
		if w.Code != http.StatusOK {
			return fmt.Errorf("batch: status %d: %.200s", w.Code, w.Body)
		}
	}
	res.ops(nb, 0)
	res.set("service.batch_handler_us", rec.p50("service.batch_handler"), "us", fmt.Sprintf("%d-item hit batch, p50 of %d", batchItems, nb))
	res.set("service.batch_handler_allocs", allocsPer(nb, func(i int) func() {
		req, w := newRequest(http.MethodPost, "/v1/tune/batch", batches[i].body), httptest.NewRecorder()
		return func() { h.ServeHTTP(w, req) }
	}), "count")
	return nil
}

// spanCtx carries a span's identity into a cache fill.
type spanCtx struct{ parent, req int64 }

// missPath times cache misses on distinct tune-cold keys through a
// benchmark-owned cache whose fill is the daemon's predict split into
// its three calls, one span each.
func missPath(ctx context.Context, e *env, preds []core.Predictor, rec *recorder, res *result) error {
	bySys := make(map[string]core.Predictor, len(preds))
	for _, p := range preds {
		bySys[p.System().Name] = p
	}
	fill := func(ctx context.Context, system string, inst plan.Instance) (tunecache.Plan, error) {
		sc, _ := ctx.Value(spanCtx{}).(spanCtx)
		p := bySys[system]
		sys := p.System()
		sp := rec.start("core.predict", sc.parent, sc.req)
		pred := p.Predict(inst)
		sp.end()
		pl := tunecache.Plan{Serial: pred.Serial, Par: pred.Par}
		sp = rec.start("engine.serial", sc.parent, sc.req)
		pl.SerialNs = engine.SerialNs(sys, inst)
		sp.end()
		pl.RTimeNs = pl.SerialNs
		if !pred.Serial {
			sp = rec.start("engine.estimate", sc.parent, sc.req)
			r, err := engine.Estimate(sys, inst, pred.Par, engine.Options{})
			sp.end()
			if err != nil {
				return pl, err
			}
			pl.RTimeNs = r.RTimeNs
		}
		return pl, nil
	}
	m := max(e.layerOps/4, 20)
	cache := tunecache.NewShardedCtx(m, 0, fill)
	src := newZipfKeys(coldKeys{}, e.seed, 30)
	seen := make(map[*tuneKey]bool)
	var keys []*tuneKey
	for len(keys) < m {
		k, err := src.next()
		if err != nil {
			return err
		}
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	for i, k := range keys {
		req := int64(1_000_000 + i)
		sp := rec.start("tunecache.miss", 0, req)
		_, outcome, err := cache.GetCtx(context.WithValue(ctx, spanCtx{}, spanCtx{sp.id(), req}), k.req.System, k.inst)
		sp.end()
		if err != nil || outcome != tunecache.Miss {
			return fmt.Errorf("%s: lookup %v, %v; want a miss", k.body, outcome, err)
		}
	}
	// Predict alone is tens of nanoseconds, below what one span resolves,
	// so it is also timed as a loop over the same keys.
	const reps = 20
	start := time.Now()
	for r := 0; r < reps; r++ {
		for _, k := range keys {
			bySys[k.req.System].Predict(k.inst)
		}
	}
	res.ops(m, 0)
	res.set("tunecache.miss_us", rec.p50("tunecache.miss"), "us", fmt.Sprintf("p50 of %d distinct tune-cold keys", m))
	res.set("core.predict_ns", float64(time.Since(start))/float64(reps*m), "ns", "mean of a loop over the miss keys")
	res.set("engine.estimate_us", rec.p50("engine.estimate"), "us")
	res.set("engine.serial_ns", rec.p50("engine.serial")*1e3, "ns")
	return nil
}

// loopback times requests over a real loopback socket to this process:
// an empty handler that answers with a canned tune reply (transport
// alone, same bytes both ways) and the service handler (the served
// request), on one keep-alive connection, alternating.
func loopback(ctx context.Context, e *env, srv *service.Server, hot []*tuneKey, rec *recorder, res *result) error {
	h := srv.Handler()
	reply := serve(h, http.MethodPost, "/v1/tune", hot[0].body).Body.Bytes()
	mux := http.NewServeMux()
	mux.HandleFunc("/empty", func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body) // the body only has to be consumed
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(reply) // a failed write fails the client's request
	})
	mux.HandleFunc("/v1/", func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseInt(r.Header.Get("X-Wavebench-Span"), 10, 64)
		sp := rec.start("served.handler", parent, parent)
		h.ServeHTTP(w, r)
		sp.end()
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: mux}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = hs.Serve(l) // returns http.ErrServerClosed after Close below
	}()
	defer func() {
		hs.Close()
		wg.Wait()
	}()
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	defer client.CloseIdleConnections()
	base := "http://" + l.Addr().String()
	post := func(path string, body []byte, spanID int64) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+path, bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Wavebench-Span", strconv.FormatInt(spanID, 10))
		resp, err := client.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("POST %s: status %d", path, resp.StatusCode)
		}
		return nil
	}
	n := e.layerOps
	for i := 0; i < n; i++ {
		k := hot[i%len(hot)]
		sp := rec.start("net.rtt", 0, 0)
		err := post("/empty", k.body, 0)
		sp.end()
		if err != nil {
			return err
		}
		sp = rec.start("net.request", 0, 0)
		err = post("/v1/tune", k.body, sp.id())
		sp.end()
		if err != nil {
			return err
		}
	}
	res.ops(2*n, 0)
	rtt, served := rec.p50("net.rtt"), rec.p50("net.request")
	res.set("net.loopback_rtt_us", rtt, "us", fmt.Sprintf("empty handler, closed loop, p50 of %d", n))
	res.set("served.p50_us", served, "us", fmt.Sprintf("served hit over loopback, closed loop, p50 of %d", n))
	res.set("served.unattributed_us", served-(rtt+rec.p50("service.handler")), "us", "served - (rtt + handler)")
	return nil
}

// refineLayers times the pieces of a job: online refinement of a cached
// plan, the engine measurement, and one observation-log append.
func refineLayers(ctx context.Context, e *env, srv *service.Server, preds []core.Predictor, hot []*tuneKey, rec *recorder, res *result) error {
	bySys := make(map[string]core.Predictor, len(preds))
	for _, p := range preds {
		bySys[p.System().Name] = p
	}
	dir, err := os.MkdirTemp(e.workdir, "obslog-")
	if err != nil {
		return err
	}
	obs, err := core.NewObservationLog(dir)
	if err != nil {
		return err
	}
	m := max(e.layerOps/32, 8)
	var probes []float64
	for i := 0; i < m; i++ {
		k := hot[i*len(hot)/m]
		p, _, err := srv.Cache().Get(k.req.System, k.inst)
		if err != nil {
			return err
		}
		sp := rec.start("core.refine", 0, 0)
		_, st, err := core.NewOnlineTuner(bySys[k.req.System]).RefineDecisionContext(ctx, k.inst,
			core.Prediction{Serial: p.Serial, Par: p.Par}, p.SerialNs)
		sp.end()
		if err != nil {
			return err
		}
		probes = append(probes, float64(st.Probes))
		sp = rec.start("engine.measure", 0, 0)
		_, _, err = engine.MeasureStepsNs(k.sys, k.inst, p.Serial, p.Par)
		sp.end()
		if err != nil {
			return err
		}
		sp = rec.start("core.obslog_append", 0, 0)
		err = obs.Append(k.req.System, core.Observation{Inst: k.inst, Par: p.Par, RTimeNs: p.RTimeNs, App: k.req.App})
		sp.end()
		if err != nil {
			return err
		}
	}
	if err := obs.Close(); err != nil {
		return err
	}
	res.ops(3*m, 0)
	res.set("core.refine_ms", rec.p50("core.refine")/1e3, "ms", fmt.Sprintf("p50 of %d hot keys", m))
	res.set("core.refine_probes", mean(probes), "count")
	res.set("engine.measure_us", rec.p50("engine.measure"), "us")
	res.set("core.obslog_append_us", rec.p50("core.obslog_append"), "us")
	return nil
}

// jobLayers replays jobs-feedback's open-loop stream at its frozen rate
// through a second in-process service configured like the daemon of
// that workload (training log, retraining), and reads the job, pipeline
// and retrain records it leaves.
func jobLayers(ctx context.Context, e *env, preds []core.Predictor, hot []*tuneKey, res *result) error {
	dir, err := os.MkdirTemp(e.workdir, "trainlog-")
	if err != nil {
		return err
	}
	srv, err := service.New(service.Config{
		Tuners:    service.NewStaticSource(preds...),
		CacheSize: cacheCapacity,
		Jobs:      service.JobOptions{TrainingLogDir: dir},
		Retrain:   service.RetrainOptions{Interval: 2 * time.Second, MinObservations: 16},
	})
	if err != nil {
		return err
	}
	defer shutdown(srv)
	// Twice the tune replays' share: job records arrive at about 290/s,
	// and a queue-wait p99 needs a thousand of them.
	win := time.Duration(2 * traceShare * float64(e.window))
	ops, err := schedule(e.seed, 21, (readRate+jobRate)*e.rateScale, win, 0, jobsMix(), newUniformKeys(hot, e.seed, 21))
	if err != nil {
		return err
	}
	h := srv.Handler()
	var mu sync.Mutex
	submitted, rejected := 0, 0
	r := openLoop(ctx, nil, dueTimes(ops), func(_ context.Context, _ *conn, i int) error {
		path, want := opPath(ops[i].kind)
		w := serve(h, http.MethodPost, path, ops[i].body)
		if ops[i].kind != opTune {
			mu.Lock()
			submitted++
			if w.Code == http.StatusTooManyRequests {
				rejected++
			}
			mu.Unlock()
		}
		if w.Code != want {
			return fmt.Errorf("POST %s: status %d: %.200s", path, w.Code, w.Body)
		}
		return nil
	})
	res.ops(len(r.OK), r.failed())
	m := srv.Jobs()
	for giveUp := time.Now().Add(30 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		st, ps := m.Stats(), m.PipelineStats()
		if st.Queued+st.Running == 0 && ps.Active == 0 {
			break
		}
		if time.Now().After(giveUp) {
			return errors.New("jobs replay: jobs still running 30s after the window")
		}
	}
	var wait, exec, pipe []float64
	for _, j := range m.List(jobs.Filter{}) {
		if j.State != jobs.StateSucceeded {
			res.problem("job %s %s: %s", j.ID, j.State, j.Err)
			res.ops(0, 1)
			continue
		}
		wait = append(wait, ms(j.Started.Sub(j.Created)))
		exec = append(exec, ms(j.Finished.Sub(j.Started)))
	}
	for _, p := range m.ListPipelines(jobs.PipelineFilter{}) {
		pipe = append(pipe, ms(p.Finished.Sub(p.Created)))
	}
	ws := summarize(wait)
	res.set("jobs.queue_wait_p50_ms", ws.P50, "ms", fmt.Sprintf("n=%d", ws.N))
	res.set("jobs.queue_wait_p99_ms", ws.Tail, "ms", ws.tailNote())
	res.set("jobs.exec_p50_ms", median(exec), "ms")
	res.set("jobs.pipeline_p50_ms", median(pipe), "ms", fmt.Sprintf("created to finished, n=%d", len(pipe)))
	res.set("jobs.rejected_ratio", float64(rejected)/float64(max(submitted, 1)), "ratio", fmt.Sprintf("of %d submissions", submitted))
	rs := srv.Retrainer().Stats()
	promotions := uint64(0)
	for _, s := range rs.Systems {
		promotions += s.Promotions
	}
	res.set("retrain.cycles", float64(rs.Cycles), "count")
	res.set("retrain.promotions", float64(promotions), "count")
	res.set("tunecache.invalidations", float64(srv.Cache().Stats().Invalidations), "count")
	w := serve(h, http.MethodGet, "/metrics", nil)
	trainSec := 0.0
	for _, line := range strings.Split(w.Body.String(), "\n") {
		if v, ok := strings.CutPrefix(line, "waved_retrain_train_seconds_sum "); ok {
			if trainSec, err = strconv.ParseFloat(v, 64); err != nil {
				return fmt.Errorf("/metrics: %s: %w", line, err)
			}
		}
	}
	res.set("retrain.train_s", trainSec, "s", "waved_retrain_train_seconds sum")
	return nil
}
