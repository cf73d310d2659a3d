package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hw"
)

// testTuner trains one shared tiny-space tuner per test binary run.
var (
	tunerOnce sync.Once
	testTun   *core.Tuner
	tunerErr  error
)

func tinyTuner(t *testing.T) *core.Tuner {
	t.Helper()
	tunerOnce.Do(func() {
		space := core.Space{
			Dims:      []int{300, 700, 1500},
			TSizes:    []float64{10, 200, 3000},
			DSizes:    []int{1, 5},
			CPUTiles:  []int{1, 8},
			BandFracs: []float64{-1, 0.5, 1.0},
			HaloFracs: []float64{-1, 0, 1.0},
			GPUTiles:  []int{1, 8},
		}
		sr, err := core.Exhaustive(hw.I7_2600K(), space, core.SearchOptions{})
		if err != nil {
			tunerErr = err
			return
		}
		testTun, tunerErr = core.Train(sr, core.DefaultTrainOptions())
	})
	if tunerErr != nil {
		t.Fatal(tunerErr)
	}
	return testTun
}

// countingSource counts tuner resolutions, in total and per system. The
// server's champion table calls a source once per system, however many
// cache misses follow; misses are counted by the cache's own stats.
type countingSource struct {
	inner TunerSource
	calls atomic.Int64

	mu       sync.Mutex
	bySystem map[string]int
}

func (c *countingSource) Tuner(sys hw.System) (core.Predictor, error) {
	c.calls.Add(1)
	c.mu.Lock()
	if c.bySystem == nil {
		c.bySystem = make(map[string]int)
	}
	c.bySystem[sys.Name]++
	c.mu.Unlock()
	return c.inner.Tuner(sys)
}

// count returns how often the source was called for the named system.
func (c *countingSource) count(system string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bySystem[system]
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *countingSource) {
	t.Helper()
	src := &countingSource{inner: NewStaticSource(tinyTuner(t))}
	if cfg.Tuners == nil {
		cfg.Tuners = src
	}
	if len(cfg.Systems) == 0 {
		cfg.Systems = []hw.System{hw.I7_2600K()}
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, src
}

func postTune(t *testing.T, url string, body string) (TuneResponse, *http.Response) {
	t.Helper()
	resp, err := http.Post(url+"/v1/tune", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var tr TuneResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
			t.Fatal(err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return tr, resp
}

func getStats(t *testing.T, url string) StatsResponse {
	t.Helper()
	resp, err := http.Get(url + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/stats status %d", resp.StatusCode)
	}
	var sr StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	return sr
}

// TestTuneColdHitAndStats is the acceptance path: a cold request
// triggers exactly one predict, a repeat is a cache hit, and /v1/stats
// counters prove both.
func TestTuneColdHitAndStats(t *testing.T) {
	_, ts, src := newTestServer(t, Config{})
	body := `{"system":"i7-2600K","dim":1900,"tsize":750,"dsize":4}`

	tr, resp := postTune(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold status %d", resp.StatusCode)
	}
	if tr.Cache != "miss" {
		t.Errorf("cold request cache = %q, want miss", tr.Cache)
	}
	if tr.Instance.Rows != 1900 || tr.Instance.Cols != 1900 {
		t.Errorf("instance echo wrong: %+v", tr.Instance)
	}
	if !tr.Serial && tr.Params.CPUTile < 1 {
		t.Errorf("invalid params: %+v", tr.Params)
	}
	if tr.RTimeSec <= 0 || tr.SerialSec <= 0 {
		t.Errorf("runtimes not reported: %+v", tr)
	}
	if got := src.calls.Load(); got != 1 {
		t.Fatalf("cold request resolved the tuner %d times, want exactly 1", got)
	}
	st := getStats(t, ts.URL)
	if st.Cache.Misses != 1 || st.Cache.Hits != 0 {
		t.Fatalf("stats after cold = %+v, want 1 miss 0 hits", st.Cache)
	}

	tr2, _ := postTune(t, ts.URL, body)
	if tr2.Cache != "hit" {
		t.Errorf("repeat cache = %q, want hit", tr2.Cache)
	}
	if tr2.Params != tr.Params || tr2.Serial != tr.Serial {
		t.Errorf("hit returned different decision: %+v vs %+v", tr2, tr)
	}
	if got := src.calls.Load(); got != 1 {
		t.Errorf("repeat request re-resolved the tuner (%d calls)", got)
	}
	st = getStats(t, ts.URL)
	if st.Cache.Misses != 1 || st.Cache.Hits != 1 {
		t.Errorf("stats after repeat = %+v, want 1 miss 1 hit", st.Cache)
	}
	if st.Requests["tune"] != 2 {
		t.Errorf("tune request counter = %d, want 2", st.Requests["tune"])
	}
}

// TestConcurrentIdenticalRequestsDedupe: N concurrent identical requests
// must produce exactly one underlying tuner evaluation.
func TestConcurrentIdenticalRequestsDedupe(t *testing.T) {
	_, ts, src := newTestServer(t, Config{})
	const n = 24
	body := `{"system":"i7-2600K","rows":600,"cols":1400,"app":"seqcompare"}`

	var wg sync.WaitGroup
	var decisions sync.Map
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr, resp := postTune(t, ts.URL, body)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status %d", resp.StatusCode)
				return
			}
			decisions.Store(i, tr.Params)
		}(i)
	}
	wg.Wait()

	if got := src.calls.Load(); got != 1 {
		t.Errorf("concurrent requests made %d tuner calls, want exactly 1", got)
	}
	st := getStats(t, ts.URL)
	if st.Cache.Misses != 1 {
		t.Errorf("misses = %d, want 1 (hits %d, coalesced %d)",
			st.Cache.Misses, st.Cache.Hits, st.Cache.Coalesced)
	}
	if st.Cache.Lookups() != n {
		t.Errorf("lookups = %d, want %d", st.Cache.Lookups(), n)
	}
	var first any
	decisions.Range(func(_, v any) bool {
		if first == nil {
			first = v
		} else if v != first {
			t.Errorf("divergent decisions: %+v vs %+v", v, first)
		}
		return true
	})
}

func TestValidation(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	cases := []struct {
		name string
		body string
		code int
	}{
		{"bad json", `{`, http.StatusBadRequest},
		{"trailing garbage", `{"system":"i7-2600K","dim":700,"tsize":10,"dsize":1} {"x":1}`, http.StatusBadRequest},
		{"unknown field", `{"system":"i7-2600K","dim":10,"tsize":1,"dsize":1,"bogus":1}`, http.StatusBadRequest},
		{"missing system", `{"dim":500,"tsize":10,"dsize":1}`, http.StatusBadRequest},
		{"unknown system", `{"system":"riscv","dim":500,"tsize":10,"dsize":1}`, http.StatusNotFound},
		{"missing granularity", `{"system":"i7-2600K","dim":500}`, http.StatusBadRequest},
		{"unknown app", `{"system":"i7-2600K","dim":500,"app":"raytrace"}`, http.StatusBadRequest},
		{"zero shape", `{"system":"i7-2600K","tsize":10,"dsize":1}`, http.StatusBadRequest},
		{"negative knapsack dim", `{"system":"i7-2600K","dim":-5,"app":"knapsack"}`, http.StatusBadRequest},
		{"huge knapsack dim", `{"system":"i7-2600K","dim":100000000000,"app":"knapsack"}`, http.StatusBadRequest},
		{"huge rect", `{"system":"i7-2600K","rows":600,"cols":2000000,"tsize":10,"dsize":1}`, http.StatusBadRequest},
		{"negative dsize", `{"system":"i7-2600K","dim":500,"tsize":10,"dsize":-1}`, http.StatusBadRequest},
		{"inconsistent shape", `{"system":"i7-2600K","dim":500,"rows":600,"cols":700,"tsize":10,"dsize":1}`, http.StatusBadRequest},
		{"nash app ok", `{"system":"i7-2600K","dim":700,"app":"nash","params":{"rounds":2}}`, http.StatusOK},
		{"granularity beside app", `{"system":"i7-2600K","dim":700,"app":"nash","tsize":9000,"dsize":1}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, resp := postTune(t, ts.URL, tc.body)
			if resp.StatusCode != tc.code {
				t.Errorf("status = %d, want %d", resp.StatusCode, tc.code)
			}
		})
	}

	// Method checks.
	resp, err := http.Get(ts.URL + "/v1/tune")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/tune status = %d, want 405", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/v1/stats", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/stats status = %d, want 405", resp.StatusCode)
	}
}

// getSystems fetches GET /v1/systems.
func getSystems(t *testing.T, url string) []SystemInfo {
	t.Helper()
	resp, err := http.Get(url + "/v1/systems")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Systems []SystemInfo `json:"systems"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return body.Systems
}

func TestSystemsAndHealth(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	systems := getSystems(t, ts.URL)
	if len(systems) != 1 || systems[0].Name != "i7-2600K" {
		t.Fatalf("systems = %+v", systems)
	}
	if systems[0].MaxGPUs != 2 || len(systems[0].GPUs) != 2 {
		t.Errorf("GPU description wrong: %+v", systems[0])
	}
	// The tuner is loaded when the server is built, with no request
	// asking for it.
	if systems[0].Tuner != "ready" {
		t.Errorf("tuner straight after New = %q, want ready", systems[0].Tuner)
	}
	if _, resp := postTune(t, ts.URL, `{"system":"i7-2600K","dim":700,"tsize":10,"dsize":1}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("tune status %d", resp.StatusCode)
	}
	if got := getSystems(t, ts.URL)[0].Tuner; got != "ready" {
		t.Errorf("tuner after the first tune = %q, want ready", got)
	}
	// The champion table reports the factory generation on both
	// surfaces, with retraining off as with it on.
	if got := getSystems(t, ts.URL)[0].Generation; got != 1 {
		t.Errorf("generation = %d, want the factory champion's 1", got)
	}
	if want := `waved_model_generation{system="i7-2600K"} 1`; !strings.Contains(scrapeMetrics(t, ts.URL), want+"\n") {
		t.Errorf("/metrics missing %q with retraining off", want)
	}

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Errorf("/healthz status %d", hresp.StatusCode)
	}
	b, _ := io.ReadAll(hresp.Body)
	if string(b) != "ok\n" {
		t.Errorf("/healthz body %q", b)
	}
}

// TestNewLoadsEveryTuner: New calls the source exactly once per served
// system before it returns, so every system reads ready at generation 1
// with no tune made. A system whose load fails reads failed and its
// tunes answer 500 with the wrapped cause, logged once at boot, while
// the other systems serve.
func TestNewLoadsEveryTuner(t *testing.T) {
	tiny := tinyTuner(t)
	cause := errors.New("no such tuner file")
	systems := hw.Systems()
	for name, broken := range map[string]string{"all load": "", "one fails": "i3-540"} {
		t.Run(name, func(t *testing.T) {
			src := &countingSource{inner: resolveFunc(func(sys hw.System) (core.Predictor, error) {
				if sys.Name == broken {
					return nil, cause
				}
				return tiny, nil
			})}
			var logs bytes.Buffer
			_, ts, _ := newTestServer(t, Config{Tuners: src, Systems: systems, Logger: slog.New(slog.NewTextHandler(&logs, nil))})
			for _, sys := range systems {
				if got := src.count(sys.Name); got != 1 {
					t.Errorf("source called %d times for %s by the time New returned, want 1", got, sys.Name)
				}
			}
			wantLogged := 0
			if broken != "" {
				wantLogged = 1
			}
			if got := strings.Count(logs.String(), "tuner resolution failed"); got != wantLogged {
				t.Errorf("%d load failures logged, want %d:\n%s", got, wantLogged, logs.String())
			}
			for _, info := range getSystems(t, ts.URL) {
				want := tunerReady
				if info.Name == broken {
					want = tunerFailed
				}
				if info.Tuner != want || info.Generation != 1 {
					t.Errorf("%s = %s generation %d, want %s generation 1", info.Name, info.Tuner, info.Generation, want)
				}
			}
			for _, sys := range systems {
				resp, err := http.Post(ts.URL+"/v1/tune", "application/json",
					strings.NewReader(`{"system":"`+sys.Name+`","dim":700,"tsize":10,"dsize":1}`))
				if err != nil {
					t.Fatal(err)
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if sys.Name != broken {
					if resp.StatusCode != http.StatusOK {
						t.Errorf("%s tune status %d, want 200: %s", sys.Name, resp.StatusCode, body)
					}
					continue
				}
				if resp.StatusCode != http.StatusInternalServerError ||
					!strings.Contains(string(body), "resolving tuner for "+broken+": "+cause.Error()) {
					t.Errorf("%s tune = %d %s, want 500 with the wrapped cause", sys.Name, resp.StatusCode, body)
				}
				ji, _ := postJob(t, ts.URL, `{"system":"`+sys.Name+`","dim":800,"tsize":10,"dsize":1}`)
				if done := pollJob(t, ts.URL, ji.ID); done.State != "failed" || !strings.Contains(done.Error, cause.Error()) {
					t.Errorf("%s job = %s %q, want failed with the cause", sys.Name, done.State, done.Error)
				}
			}
			if got := src.calls.Load(); got != int64(len(systems)) {
				t.Errorf("source called %d times after the tunes, want once per system (%d)", got, len(systems))
			}
		})
	}
}

// TestServeShutdownLifecycle exercises the real-socket path used by
// waved: Serve on an OS-assigned port, answer a request, shut down
// gracefully, and observe Serve return nil.
func TestServeShutdownLifecycle(t *testing.T) {
	s, err := New(Config{Systems: []hw.System{hw.I7_2600K()}, Tuners: NewStaticSource(tinyTuner(t))})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(l) }()

	resp, err := http.Get("http://" + l.Addr().String() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz status %d", resp.StatusCode)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Serve returned %v after graceful shutdown", err)
	}
}

// TestServeCutsStalledHeader: a client that sends half a request header
// and then goes quiet is disconnected once the header timeout passes,
// and the server goes on answering other clients.
func TestServeCutsStalledHeader(t *testing.T) {
	defer func(d time.Duration) { readHeaderTimeout = d }(readHeaderTimeout)
	readHeaderTimeout = 100 * time.Millisecond
	s, err := New(Config{Systems: []hw.System{hw.I7_2600K()}, Tuners: NewStaticSource(tinyTuner(t))})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(l) }()
	defer func() {
		if err := s.Shutdown(context.Background()); err != nil {
			t.Error(err)
		}
		<-done
	}()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: waved\r\n"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("stalled connection not closed by the server: %v", err)
	}

	resp, err := http.Get("http://" + l.Addr().String() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz status %d after cutting a stalled client", resp.StatusCode)
	}
}

// TestShutdownBeforeServe: a signal racing ahead of the serve goroutine
// must not leave an unstoppable server behind — Serve called after
// Shutdown returns immediately.
func TestShutdownBeforeServe(t *testing.T) {
	s, err := New(Config{Systems: []hw.System{hw.I7_2600K()}, Tuners: NewStaticSource(tinyTuner(t))})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(l) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve after Shutdown = %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve after Shutdown never returned")
	}
}

func TestDuplicateSystemRejected(t *testing.T) {
	_, err := New(Config{Systems: []hw.System{hw.I3_540(), hw.I3_540()}})
	if err == nil {
		t.Fatal("duplicate systems must be rejected")
	}
}
