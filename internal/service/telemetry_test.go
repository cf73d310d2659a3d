package service

// Tests of the observability layer: the /metrics exposition (validated
// line by line), the request-ID plumbing through headers, error bodies
// and job/pipeline records, /v1/stats reading the same request
// counters, structured request logging in both formats, and
// slow-request span-tree dumps.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// syncBuffer is a mutex-guarded buffer: the middleware logs after the
// response is written, so the client can observe the response before
// the log line lands and the test must poll.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func scrapeMetrics(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics Content-Type = %q, want text/plain", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := telemetry.ValidateExposition(bytes.NewReader(body)); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, body)
	}
	return string(body)
}

// TestMetricsScrapeValid drives every route family and then checks the
// exposition strictly: parseable, HELP/TYPE paired, histograms
// well-formed, and the series the traffic must have minted present
// with the right values.
func TestMetricsScrapeValid(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})

	// One miss, one hit on the tune path; a batch; a bad request; a
	// health probe; a jobs listing.
	body := `{"system":"i7-2600K","dim":1900,"tsize":750,"dsize":4}`
	postTune(t, ts.URL, body)
	postTune(t, ts.URL, body)
	resp, err := http.Post(ts.URL+"/v1/tune/batch", "application/json",
		strings.NewReader(`{"system":"i7-2600K","items":[{"dim":700,"tsize":10,"dsize":1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	_, bad := postTune(t, ts.URL, `{"system":"nope","dim":100,"tsize":10,"dsize":1}`)
	if bad.StatusCode != http.StatusNotFound {
		t.Fatalf("bad tune status %d, want 404", bad.StatusCode)
	}
	for _, path := range []string{"/healthz", "/v1/jobs"} {
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
	}
	// An unknown path answers the JSON error body, request ID included.
	r, err := http.Get(ts.URL + "/does/not/exist")
	if err != nil {
		t.Fatal(err)
	}
	var notFound errorResponse
	if err := json.NewDecoder(r.Body).Decode(&notFound); err != nil {
		t.Fatalf("unknown path body is not a JSON error: %v", err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound || notFound.Error == "" ||
		notFound.RequestID == "" || notFound.RequestID != r.Header.Get("X-Request-Id") {
		t.Errorf("unknown path: status %d, body %+v, X-Request-Id %q; want a JSON 404 with the request ID",
			r.StatusCode, notFound, r.Header.Get("X-Request-Id"))
	}

	var text string
	// The latency observation for a request lands after its response is
	// written; poll until the tune requests' durations are visible.
	waitFor(t, "tune latency observations", func() bool {
		text = scrapeMetrics(t, ts.URL)
		return strings.Contains(text, `waved_http_request_duration_seconds_count{route="tune"} 3`)
	})

	if err := telemetry.ValidateExposition(strings.NewReader(text)); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, text)
	}

	for _, want := range []string{
		// Handler-level request counters (three tune requests: two good,
		// one rejected before handling completed still counts).
		`waved_http_requests_total{route="tune"} 3`,
		`waved_http_requests_total{route="batch"} 1`,
		`waved_http_requests_total{route="healthz"} 1`,
		// The unknown path collapsed into "other" instead of minting a
		// series, and counted there.
		`waved_http_responses_total{route="other",code="404"} 1`,
		`waved_http_requests_total{route="other"} 1`,
		`waved_http_errors_total{route="other"} 1`,
		// The bad tune answered 404 and counted as a tune-route error.
		`waved_http_errors_total{route="tune"} 1`,
		`waved_http_responses_total{route="tune",code="404"} 1`,
		// Cache outcomes per shard: the repeated tune is a hit, the two
		// distinct instances are misses.
		`outcome="hit"`,
		`outcome="miss"`,
		// Stage histograms fed from span durations.
		"waved_cache_lookup_duration_seconds_count",
		"waved_tuner_predict_duration_seconds_count",
		// Subsystem collectors.
		"waved_job_queue_depth 0",
		"waved_jobs_running 0",
		`waved_jobs_events_total{event="submitted"} 0`,
		"waved_pipeline_waves_resolved_total 0",
		"waved_uptime_seconds",
		// Job-manager histograms registered even before any job ran.
		"waved_job_execution_seconds_count 0",
		"waved_pipeline_wave_seconds_count 0",
		"waved_engine_measure_seconds_count 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	for _, fam := range []string{
		"waved_http_requests_total", "waved_http_request_duration_seconds",
		"waved_cache_lookups_total", "waved_job_queue_wait_seconds",
	} {
		if !strings.Contains(text, "# HELP "+fam+" ") {
			t.Errorf("missing HELP for %s", fam)
		}
		if !strings.Contains(text, "# TYPE "+fam+" ") {
			t.Errorf("missing TYPE for %s", fam)
		}
	}
	// Scraping /metrics is itself a counted route: the scrapes above
	// show up in the next one.
	text = scrapeMetrics(t, ts.URL)
	m := regexp.MustCompile(`(?m)^waved_http_requests_total\{route="metrics"\} (\d+)$`).FindStringSubmatch(text)
	if m == nil {
		t.Fatal("metrics route not pre-registered")
	}
	if n, _ := strconv.Atoi(m[1]); n < 1 {
		t.Errorf("metrics route counted %d scrapes, want >= 1", n)
	}
	// The scrape reading the in-flight gauge is itself in flight.
	m = regexp.MustCompile(`(?m)^waved_http_inflight_requests (\d+)$`).FindStringSubmatch(text)
	if m == nil {
		t.Fatal("in-flight gauge missing")
	}
	if n, _ := strconv.Atoi(m[1]); n < 1 {
		t.Errorf("in-flight gauge = %d during a scrape, want >= 1", n)
	}
	// /v1/stats reads the same request counters /metrics renders.
	if st := getStats(t, ts.URL); st.Requests["tune"] != 3 || st.UptimeSec <= 0 {
		t.Errorf("/v1/stats tune requests = %d (want 3, as on /metrics), uptime %g s",
			st.Requests["tune"], st.UptimeSec)
	}
}

// TestMetricsAfterJobAndPipeline proves the job-path histograms and
// lifecycle collectors move when work actually runs.
func TestMetricsAfterJobAndPipeline(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})

	ji, resp := postJob(t, ts.URL, `{"system":"i7-2600K","dim":500,"tsize":10,"dsize":1}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job submit status %d", resp.StatusCode)
	}
	pollJob(t, ts.URL, ji.ID)

	presp, err := http.Post(ts.URL+"/v1/pipelines", "application/json",
		strings.NewReader(`{"system":"i7-2600K","waves":[{"jobs":[{"dim":600,"tsize":10,"dsize":1}]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	var pi PipelineInfo
	if err := json.NewDecoder(presp.Body).Decode(&pi); err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if presp.StatusCode != http.StatusAccepted {
		t.Fatalf("pipeline submit status %d", presp.StatusCode)
	}
	waitFor(t, "pipeline to finish", func() bool {
		r, err := http.Get(ts.URL + "/v1/pipelines/" + pi.ID)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		var p PipelineInfo
		if err := json.NewDecoder(r.Body).Decode(&p); err != nil {
			t.Fatal(err)
		}
		return p.State == "succeeded"
	})

	text := scrapeMetrics(t, ts.URL)
	if err := telemetry.ValidateExposition(strings.NewReader(text)); err != nil {
		t.Fatalf("exposition invalid after jobs: %v", err)
	}
	for _, want := range []string{
		`waved_jobs_events_total{event="submitted"} 2`,
		`waved_jobs_events_total{event="succeeded"} 2`,
		`waved_pipelines_events_total{event="submitted"} 1`,
		`waved_pipelines_events_total{event="succeeded"} 1`,
		"waved_pipeline_waves_resolved_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// The histograms fed by the job path must have observations now:
	// queue wait and execution for both jobs, at least one wave, and
	// engine measurements underneath.
	for _, fam := range []string{
		"waved_job_queue_wait_seconds_count 2",
		"waved_job_execution_seconds_count 2",
		"waved_pipeline_wave_seconds_count 1",
	} {
		if !strings.Contains(text, fam) {
			t.Errorf("exposition missing %q", fam)
		}
	}
	if strings.Contains(text, "waved_engine_measure_seconds_count 0") {
		t.Error("engine measurements not observed")
	}
}

// TestRequestIDPlumbing checks the X-Request-ID contract: echoed when
// supplied, generated when absent, stamped into error bodies and into
// job and pipeline records.
func TestRequestIDPlumbing(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})

	// Generated when absent.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if id := resp.Header.Get("X-Request-ID"); !strings.HasPrefix(id, "req-") {
		t.Errorf("generated request ID = %q, want req- prefix", id)
	}

	// Echoed when supplied, and stamped into the 4xx error body.
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/tune",
		strings.NewReader(`{"system":"nope","dim":100,"tsize":10,"dsize":1}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", "req-test-1234")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "req-test-1234" {
		t.Errorf("echoed request ID = %q", got)
	}
	var eb struct {
		Error     string `json:"error"`
		RequestID string `json:"request_id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if eb.RequestID != "req-test-1234" {
		t.Errorf("error body request_id = %q, want req-test-1234", eb.RequestID)
	}
	if eb.Error == "" {
		t.Error("error body lost its message")
	}

	// Stamped into the job record created by the submission.
	jreq, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs",
		strings.NewReader(`{"system":"i7-2600K","dim":500,"tsize":10,"dsize":1}`))
	if err != nil {
		t.Fatal(err)
	}
	jreq.Header.Set("Content-Type", "application/json")
	jreq.Header.Set("X-Request-ID", "req-job-origin")
	jresp, err := http.DefaultClient.Do(jreq)
	if err != nil {
		t.Fatal(err)
	}
	var ji JobInfo
	if err := json.NewDecoder(jresp.Body).Decode(&ji); err != nil {
		t.Fatal(err)
	}
	jresp.Body.Close()
	if ji.RequestID != "req-job-origin" {
		t.Errorf("job record request_id = %q, want req-job-origin", ji.RequestID)
	}
	if got, _ := getJob(t, ts.URL, ji.ID); got.RequestID != "req-job-origin" {
		t.Errorf("polled job request_id = %q", got.RequestID)
	}

	// Pipeline submissions propagate their ID to wave jobs.
	preq, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/pipelines",
		strings.NewReader(`{"system":"i7-2600K","waves":[{"jobs":[{"dim":600,"tsize":10,"dsize":1}]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	preq.Header.Set("Content-Type", "application/json")
	preq.Header.Set("X-Request-ID", "req-pipe-origin")
	presp, err := http.DefaultClient.Do(preq)
	if err != nil {
		t.Fatal(err)
	}
	var pi PipelineInfo
	if err := json.NewDecoder(presp.Body).Decode(&pi); err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if pi.RequestID != "req-pipe-origin" {
		t.Errorf("pipeline record request_id = %q", pi.RequestID)
	}
	waitFor(t, "pipeline wave job", func() bool {
		r, err := http.Get(ts.URL + "/v1/pipelines/" + pi.ID)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		var p PipelineInfo
		if err := json.NewDecoder(r.Body).Decode(&p); err != nil {
			t.Fatal(err)
		}
		return len(p.Waves) == 1 && len(p.Waves[0].JobIDs) > 0
	})
	r, err := http.Get(ts.URL + "/v1/pipelines/" + pi.ID)
	if err != nil {
		t.Fatal(err)
	}
	var p PipelineInfo
	if err := json.NewDecoder(r.Body).Decode(&p); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	wj, _ := getJob(t, ts.URL, p.Waves[0].JobIDs[0])
	if wj.RequestID != "req-pipe-origin" {
		t.Errorf("wave job request_id = %q, want inherited req-pipe-origin", wj.RequestID)
	}
}

// logEncodings are the two handlers waved's -log-format selects.
var logEncodings = []struct {
	name    string
	handler func(io.Writer) slog.Handler
}{
	{"text", func(w io.Writer) slog.Handler { return slog.NewTextHandler(w, nil) }},
	{"json", func(w io.Writer) slog.Handler { return slog.NewJSONHandler(w, nil) }},
}

// TestServeLogsListenAddress pins the listen line in both encodings:
// clients that start the daemon on port 0 (wavebench) find its address
// by matching this expression against its log.
func TestServeLogsListenAddress(t *testing.T) {
	servingOn := regexp.MustCompile(`serving on (127\.0\.0\.1:\d+)`)
	for _, tc := range logEncodings {
		t.Run(tc.name, func(t *testing.T) {
			buf := &syncBuffer{}
			s, _, _ := newTestServer(t, Config{Logger: slog.New(tc.handler(buf))})
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			served := make(chan error, 1)
			go func() { served <- s.Serve(l) }()
			waitFor(t, "listen line", func() bool { return servingOn.MatchString(buf.String()) })
			t.Logf("listen line: %s", strings.TrimSpace(buf.String()))
			if m := servingOn.FindStringSubmatch(buf.String()); m[1] != l.Addr().String() {
				t.Errorf("logged address %s, listening on %s", m[1], l.Addr())
			}
			if err := s.Shutdown(context.Background()); err != nil {
				t.Fatal(err)
			}
			if err := <-served; err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestStructuredRequestLog checks both log encodings produce one line
// per request with the request's fields.
func TestStructuredRequestLog(t *testing.T) {
	for _, tc := range logEncodings {
		t.Run(tc.name, func(t *testing.T) {
			buf := &syncBuffer{}
			_, ts, _ := newTestServer(t, Config{Logger: slog.New(tc.handler(buf))})
			resp, err := http.Get(ts.URL + "/healthz")
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			id := resp.Header.Get("X-Request-ID")

			waitFor(t, "request log line", func() bool {
				return strings.Contains(buf.String(), id)
			})
			line := ""
			for _, l := range strings.Split(buf.String(), "\n") {
				if strings.Contains(l, id) {
					line = l
					break
				}
			}
			t.Logf("request line: %s", line)
			switch tc.name {
			case "text":
				for _, want := range []string{"level=INFO", "msg=request", "route=healthz", "status=200", "request_id=" + id, "dur="} {
					if !strings.Contains(line, want) {
						t.Errorf("text line missing %q: %s", want, line)
					}
				}
			case "json":
				var rec map[string]any
				if err := json.Unmarshal([]byte(line), &rec); err != nil {
					t.Fatalf("log line is not JSON: %v: %s", err, line)
				}
				if rec["msg"] != "request" || rec["route"] != "healthz" || rec["request_id"] != id {
					t.Errorf("json line fields wrong: %s", line)
				}
				if fmt.Sprint(rec["status"]) != "200" {
					t.Errorf("json status = %v", rec["status"])
				}
				if dur, ok := rec["dur"].(float64); !ok || dur <= 0 || dur != float64(int64(dur)) {
					t.Errorf("json dur = %v, want integer nanoseconds", rec["dur"])
				}
			}
		})
	}
}

// TestSlowRequestSpanTree checks that requests over the threshold log
// their full span tree, child spans included.
func TestSlowRequestSpanTree(t *testing.T) {
	buf := &syncBuffer{}
	_, ts, _ := newTestServer(t, Config{
		Logger:      slog.New(slog.NewTextHandler(buf, nil)),
		SlowRequest: time.Nanosecond,
	})

	postTune(t, ts.URL, `{"system":"i7-2600K","dim":1900,"tsize":750,"dsize":4}`)
	waitFor(t, "slow-request dump", func() bool {
		return strings.Contains(buf.String(), `msg="slow request"`)
	})
	out := buf.String()
	for _, want := range []string{"http.request", "cache.lookup", "tuner.predict"} {
		if !strings.Contains(out, want) {
			t.Errorf("span tree missing %q:\n%s", want, out)
		}
	}
}

// TestMetricsMethodNotAllowed: the exposition handler only answers GET
// and HEAD.
func TestMetricsMethodNotAllowed(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/metrics", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /metrics status %d, want 405", resp.StatusCode)
	}
}
