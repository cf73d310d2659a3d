package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/plan"
)

func postJob(t *testing.T, url, body string) (JobInfo, *http.Response) {
	t.Helper()
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ji JobInfo
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&ji); err != nil {
			t.Fatal(err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return ji, resp
}

func getJob(t *testing.T, url, id string) (JobInfo, int) {
	t.Helper()
	resp, err := http.Get(url + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return JobInfo{}, resp.StatusCode
	}
	var ji JobInfo
	if err := json.NewDecoder(resp.Body).Decode(&ji); err != nil {
		t.Fatal(err)
	}
	return ji, resp.StatusCode
}

func pollJob(t *testing.T, url, id string) JobInfo {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		ji, code := getJob(t, url, id)
		if code != http.StatusOK {
			t.Fatalf("polling %s: status %d", id, code)
		}
		switch ji.State {
		case "succeeded", "failed", "canceled":
			return ji
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s", id, ji.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func deleteJob(t *testing.T, url, id string) (JobInfo, *http.Response) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ji JobInfo
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&ji); err != nil {
			t.Fatal(err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return ji, resp
}

// TestJobLifecycleHTTP is the acceptance path: cold submit answers 202
// with a queued record and a Location header; polling reaches succeeded
// with tuned params, a measured runtime and the cache outcome; a repeat
// job is served from the cache.
func TestJobLifecycleHTTP(t *testing.T) {
	_, ts, src := newTestServer(t, Config{})
	body := `{"system":"i7-2600K","dim":1500,"tsize":750,"dsize":4}`

	ji, resp := postJob(t, ts.URL, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	if ji.State != "queued" {
		t.Errorf("submit state = %q, want queued", ji.State)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+ji.ID {
		t.Errorf("Location = %q, want /v1/jobs/%s", loc, ji.ID)
	}
	if ji.Instance.Rows != 1500 || ji.Instance.Cols != 1500 {
		t.Errorf("instance echo = %+v", ji.Instance)
	}
	if ji.Priority != "normal" {
		t.Errorf("default priority = %q, want normal", ji.Priority)
	}

	done := pollJob(t, ts.URL, ji.ID)
	if done.State != "succeeded" {
		t.Fatalf("job = %+v, want succeeded", done)
	}
	r := done.Result
	if r == nil {
		t.Fatal("succeeded job has no result")
	}
	if r.Cache != "miss" {
		t.Errorf("cold job cache = %q, want miss", r.Cache)
	}
	if r.MeasuredSec <= 0 || r.SerialSec <= 0 {
		t.Errorf("runtimes not reported: %+v", r)
	}
	if !r.Serial && r.Params.CPUTile < 1 {
		t.Errorf("invalid params: %+v", r.Params)
	}
	if done.StartedAt == nil || done.FinishedAt == nil {
		t.Errorf("lifecycle timestamps missing: %+v", done)
	}
	if got := src.calls.Load(); got != 1 {
		t.Fatalf("cold job resolved the tuner %d times, want 1", got)
	}

	// A second job for the same instance rides the plan cache.
	ji2, _ := postJob(t, ts.URL, body)
	if done2 := pollJob(t, ts.URL, ji2.ID); done2.Result == nil || done2.Result.Cache != "hit" {
		t.Errorf("repeat job cache = %+v, want hit", done2.Result)
	}
	if got := src.calls.Load(); got != 1 {
		t.Errorf("repeat job re-resolved the tuner (%d calls)", got)
	}

	// Stats merge: job counters and the per-system cache breakdown.
	st := getStats(t, ts.URL)
	if st.Jobs.Submitted != 2 || st.Jobs.Succeeded != 2 {
		t.Errorf("job stats = %+v", st.Jobs)
	}
	sys := st.CacheBySystem["i7-2600K"]
	if sys.Misses != 1 || sys.Hits != 1 {
		t.Errorf("cache_by_system = %+v, want 1 miss 1 hit", sys)
	}
}

func TestJobRefinedReportsStats(t *testing.T) {
	const budget = 12 // the online tuner's fixed probe budget
	dir := t.TempDir()
	s, ts, _ := newTestServer(t, Config{
		Jobs: JobOptions{TrainingLogDir: dir},
	})
	defer s.Shutdown(context.Background())

	ji, resp := postJob(t, ts.URL, `{"system":"i7-2600K","dim":1900,"tsize":3000,"dsize":1,"refine":true,"priority":"high"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	if !ji.Refine || ji.Priority != "high" {
		t.Errorf("echo = %+v", ji)
	}
	done := pollJob(t, ts.URL, ji.ID)
	if done.State != "succeeded" {
		t.Fatalf("refine job = %+v", done)
	}
	ref := done.Result.Refinement
	if ref == nil {
		t.Fatal("refined job missing refinement stats")
	}
	if ref.Probes < 1 || ref.Probes > budget {
		t.Errorf("probes = %d, want within budget %d", ref.Probes, budget)
	}
	if ref.FinalSec > ref.StartSec {
		t.Errorf("refinement regressed: %+v", ref)
	}
	if ref.Improvement < 1 {
		t.Errorf("improvement = %v, want >= 1", ref.Improvement)
	}
}

// gatedPredictor wraps a tuner so that every prediction blocks until
// released: a job's plan fetch misses the cache and waits inside it, so
// tests can hold jobs in the running state deterministically.
type gatedPredictor struct {
	core.Predictor
	gate chan struct{}
	once sync.Once
}

func (g *gatedPredictor) PredictTimed(inst plan.Instance) (core.Prediction, float64, float64, error) {
	<-g.gate
	return g.Predictor.PredictTimed(inst)
}

func (g *gatedPredictor) release() { g.once.Do(func() { close(g.gate) }) }

func newGatedServer(t *testing.T, jobOpts JobOptions) (*httptest2, *gatedPredictor) {
	t.Helper()
	g := &gatedPredictor{Predictor: tinyTuner(t), gate: make(chan struct{})}
	s, ts, _ := newTestServer(t, Config{Tuners: NewStaticSource(g), Jobs: jobOpts})
	t.Cleanup(g.release)
	return &httptest2{s: s, url: ts.URL}, g
}

// httptest2 bundles the server and its base URL for the gated tests.
type httptest2 struct {
	s   *Server
	url string
}

// waitBusy waits until a job holds a worker; a running job waits inside
// the gated prediction.
func (h *httptest2) waitBusy() {
	for h.s.Jobs().Stats().Running == 0 {
		time.Sleep(time.Millisecond)
	}
}

func TestJobCancelQueued(t *testing.T) {
	h, g := newGatedServer(t, JobOptions{Workers: 1, QueueDepth: 4})

	// The first job occupies the single worker inside the gated prediction.
	run, _ := postJob(t, h.url, `{"system":"i7-2600K","dim":500,"tsize":10,"dsize":1}`)
	h.waitBusy()
	queued, _ := postJob(t, h.url, `{"system":"i7-2600K","dim":600,"tsize":10,"dsize":1}`)

	ji, resp := deleteJob(t, h.url, queued.ID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status = %d", resp.StatusCode)
	}
	if ji.State != "canceled" {
		t.Errorf("canceled job state = %q, want canceled", ji.State)
	}
	// Canceling again conflicts.
	if _, resp := deleteJob(t, h.url, queued.ID); resp.StatusCode != http.StatusConflict {
		t.Errorf("double cancel status = %d, want 409", resp.StatusCode)
	}
	if _, resp := deleteJob(t, h.url, "job-bogus"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown cancel status = %d, want 404", resp.StatusCode)
	}

	g.release()
	if done := pollJob(t, h.url, run.ID); done.State != "succeeded" {
		t.Errorf("blocked job finished %q, want succeeded", done.State)
	}
}

func TestJobQueueOverflow429(t *testing.T) {
	h, g := newGatedServer(t, JobOptions{Workers: 1, QueueDepth: 1})

	postJob(t, h.url, `{"system":"i7-2600K","dim":500,"tsize":10,"dsize":1}`)
	h.waitBusy()
	postJob(t, h.url, `{"system":"i7-2600K","dim":600,"tsize":10,"dsize":1}`)

	_, resp := postJob(t, h.url, `{"system":"i7-2600K","dim":700,"tsize":10,"dsize":1}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow status = %d, want 429", resp.StatusCode)
	}
	// The hint is derived (service time x backlog, clamped to [1, 60]),
	// not hardcoded; with no finished job yet it sits at the minimum.
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil {
		t.Fatalf("Retry-After %q not an integer: %v", resp.Header.Get("Retry-After"), err)
	}
	if ra < 1 || ra > 60 {
		t.Errorf("Retry-After = %d, want within [1, 60]", ra)
	}
	g.release()
}

// TestRetryAfterTracksServiceTime: once jobs have finished, the 429
// hint reflects the observed service time instead of a constant — a
// manager whose jobs run long must advise a longer backoff than the
// 1-second floor, while staying inside the clamp.
func TestRetryAfterTracksServiceTime(t *testing.T) {
	h, g := newGatedServer(t, JobOptions{Workers: 1, QueueDepth: 1})

	// Run one job whose gated prediction holds the worker for a while, so
	// the recorded service time is measurably large.
	ji, _ := postJob(t, h.url, `{"system":"i7-2600K","dim":500,"tsize":10,"dsize":1}`)
	h.waitBusy()
	time.Sleep(50 * time.Millisecond)
	g.release()
	if done := pollJob(t, h.url, ji.ID); done.State != "succeeded" {
		t.Fatalf("job finished %q, want succeeded", done.State)
	}
	st := h.s.Jobs().Stats()
	if st.AvgServiceSec <= 0 {
		t.Fatalf("avg service time not tracked: %+v", st)
	}
	if hint := h.s.Jobs().RetryAfter(); hint < time.Second || hint > time.Minute {
		t.Errorf("derived hint %v outside clamp", hint)
	}
}

// TestJobShutdownDrainsAndPersistsLog: shutdown lets running/queued
// jobs finish and the refined observations are on disk afterwards.
func TestJobShutdownDrainsAndPersistsLog(t *testing.T) {
	dir := t.TempDir()
	s, ts, _ := newTestServer(t, Config{
		Jobs: JobOptions{Workers: 2, TrainingLogDir: dir},
	})

	ji, resp := postJob(t, ts.URL, `{"system":"i7-2600K","dim":1900,"tsize":3000,"dsize":1,"refine":true}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	j, ok := s.Jobs().Get(ji.ID)
	if !ok || j.State.String() != "succeeded" {
		t.Fatalf("after drain, job = %+v", j)
	}
	// Refined parallel outcomes must be persisted for retraining.
	if j.Result != nil && !j.Result.Serial {
		f, err := os.Open(filepath.Join(dir, "i7-2600K.csv"))
		if err != nil {
			t.Fatalf("training log missing after shutdown: %v", err)
		}
		defer f.Close()
		sr, err := core.ReadCSV(f)
		if err != nil {
			t.Fatalf("training log unreadable: %v", err)
		}
		if len(sr.Instances) == 0 || len(sr.Instances[0].Points) == 0 {
			t.Error("training log empty")
		}
	}
}

func TestJobListFilters(t *testing.T) {
	h, g := newGatedServer(t, JobOptions{Workers: 1, QueueDepth: 8})
	defer g.release()

	postJob(t, h.url, `{"system":"i7-2600K","dim":500,"tsize":10,"dsize":1}`)
	h.waitBusy()
	postJob(t, h.url, `{"system":"i7-2600K","dim":600,"tsize":10,"dsize":1}`)

	var list struct {
		Jobs  []JobInfo `json:"jobs"`
		Count int       `json:"count"`
	}
	get := func(q string) {
		t.Helper()
		resp, err := http.Get(h.url + "/v1/jobs" + q)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("list %q status %d", q, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
			t.Fatal(err)
		}
	}
	get("")
	if list.Count != 2 {
		t.Errorf("list all = %d, want 2", list.Count)
	}
	get("?state=queued")
	if list.Count != 1 || list.Jobs[0].Instance.Rows != 600 {
		t.Errorf("queued list = %+v", list)
	}
	get("?state=running&system=i7-2600K")
	if list.Count != 1 || list.Jobs[0].Instance.Rows != 500 {
		t.Errorf("running list = %+v", list)
	}

	// Invalid filters.
	resp, err := http.Get(h.url + "/v1/jobs?state=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bogus state filter status = %d, want 400", resp.StatusCode)
	}
	resp, err = http.Get(h.url + "/v1/jobs?system=riscv")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown system filter status = %d, want 404", resp.StatusCode)
	}
}

func TestJobValidationHTTP(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	cases := []struct {
		name string
		body string
		code int
	}{
		{"bad json", `{`, http.StatusBadRequest},
		{"missing system", `{"dim":500,"tsize":10,"dsize":1}`, http.StatusBadRequest},
		{"unknown system", `{"system":"riscv","dim":500,"tsize":10,"dsize":1}`, http.StatusNotFound},
		{"bad priority", `{"system":"i7-2600K","dim":500,"tsize":10,"dsize":1,"priority":"urgent"}`, http.StatusBadRequest},
		{"missing granularity", `{"system":"i7-2600K","dim":500}`, http.StatusBadRequest},
		{"unknown field", `{"system":"i7-2600K","dim":500,"tsize":10,"dsize":1,"turbo":true}`, http.StatusBadRequest},
		{"named app ok", `{"system":"i7-2600K","dim":700,"app":"nash","params":{"rounds":2},"priority":"low"}`, http.StatusAccepted},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, resp := postJob(t, ts.URL, tc.body)
			if resp.StatusCode != tc.code {
				t.Errorf("status = %d, want %d", resp.StatusCode, tc.code)
			}
		})
	}
}

// TestMethodAndContentTypeHygiene: wrong methods answer 405 with Allow;
// JSON endpoints reject non-JSON bodies with 415.
func TestMethodAndContentTypeHygiene(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})

	methodCases := []struct {
		method, path, allow string
	}{
		{http.MethodGet, "/v1/tune", "POST"},
		{http.MethodDelete, "/v1/tune", "POST"},
		{http.MethodDelete, "/v1/jobs", "GET, POST"},
		{http.MethodPut, "/v1/jobs", "GET, POST"},
		{http.MethodPost, "/v1/jobs/job-00000001", "DELETE, GET"},
		{http.MethodPost, "/v1/systems", "GET"},
		{http.MethodPost, "/v1/stats", "GET"},
	}
	for _, tc := range methodCases {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s status = %d, want 405", tc.method, tc.path, resp.StatusCode)
		}
		if got := resp.Header.Get("Allow"); got != tc.allow {
			t.Errorf("%s %s Allow = %q, want %q", tc.method, tc.path, got, tc.allow)
		}
	}

	body := `{"system":"i7-2600K","dim":500,"tsize":10,"dsize":1}`
	for _, path := range []string{"/v1/tune", "/v1/jobs"} {
		resp, err := http.Post(ts.URL+path, "text/plain", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnsupportedMediaType {
			t.Errorf("POST %s with text/plain status = %d, want 415", path, resp.StatusCode)
		}
		// curl's bare -d default must keep working (every documented
		// example posts JSON that way).
		resp, err = http.Post(ts.URL+path, "application/x-www-form-urlencoded", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusUnsupportedMediaType {
			t.Errorf("POST %s with curl's default content type was rejected", path)
		}
	}
}
