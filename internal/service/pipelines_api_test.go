package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"
)

func postPipeline(t *testing.T, url, body string) (PipelineInfo, *http.Response) {
	t.Helper()
	resp, err := http.Post(url+"/v1/pipelines", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var pi PipelineInfo
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&pi); err != nil {
			t.Fatal(err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return pi, resp
}

func getPipeline(t *testing.T, url, id string) (PipelineInfo, int) {
	t.Helper()
	resp, err := http.Get(url + "/v1/pipelines/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return PipelineInfo{}, resp.StatusCode
	}
	var pi PipelineInfo
	if err := json.NewDecoder(resp.Body).Decode(&pi); err != nil {
		t.Fatal(err)
	}
	return pi, resp.StatusCode
}

func pollPipeline(t *testing.T, url, id string) PipelineInfo {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		pi, code := getPipeline(t, url, id)
		if code != http.StatusOK {
			t.Fatalf("polling pipeline %s: status %d", id, code)
		}
		switch pi.State {
		case "succeeded", "failed", "canceled":
			return pi
		}
		if time.Now().After(deadline) {
			t.Fatalf("pipeline %s stuck in state %s", id, pi.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func deletePipeline(t *testing.T, url, path string) (PipelineInfo, *http.Response) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var pi PipelineInfo
	if resp.StatusCode == http.StatusOK && strings.HasPrefix(path, "/v1/pipelines/") {
		if err := json.NewDecoder(resp.Body).Decode(&pi); err != nil {
			t.Fatal(err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return pi, resp
}

// TestPipelineLifecycleHTTP: submit answers 202 with a queued record
// and a Location header; polling reaches succeeded; every wave job is
// an ordinary record under /v1/jobs; the stats counters move.
func TestPipelineLifecycleHTTP(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	body := `{
		"name": "align-then-fold",
		"system": "i7-2600K",
		"waves": [
			{"name": "align", "jobs": [
				{"dim": 500, "tsize": 10, "dsize": 1},
				{"dim": 700, "tsize": 200, "dsize": 1}
			]},
			{"name": "fold", "after": ["align"], "jobs": [
				{"dim": 900, "tsize": 200, "dsize": 1}
			]}
		]
	}`
	pi, resp := postPipeline(t, ts.URL, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	if pi.State != "queued" || pi.ID == "" {
		t.Errorf("submit snapshot = %+v, want queued with ID", pi)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/pipelines/"+pi.ID {
		t.Errorf("Location = %q", loc)
	}
	if len(pi.Waves) != 2 || pi.Waves[0].Name != "align" || pi.Waves[1].Name != "fold" {
		t.Fatalf("waves = %+v", pi.Waves)
	}

	done := pollPipeline(t, ts.URL, pi.ID)
	if done.State != "succeeded" || done.Error != "" {
		t.Fatalf("pipeline = %s (err %q), want succeeded", done.State, done.Error)
	}
	if done.StartedAt == nil || done.FinishedAt == nil {
		t.Error("finished pipeline missing timestamps")
	}
	widths := []int{2, 1}
	for wi, w := range done.Waves {
		if w.State != "resolved" || len(w.JobIDs) != widths[wi] {
			t.Errorf("wave %d = %+v, want resolved with %d jobs", wi, w, widths[wi])
		}
		for _, id := range w.JobIDs {
			ji, code := getJob(t, ts.URL, id)
			if code != http.StatusOK || ji.State != "succeeded" {
				t.Errorf("wave %d job %s: status %d state %q", wi, id, code, ji.State)
			}
		}
	}

	sr := getStats(t, ts.URL)
	if sr.Pipelines.Submitted != 1 || sr.Pipelines.Succeeded != 1 || sr.Pipelines.WavesResolved != 2 {
		t.Errorf("stats pipelines = %+v", sr.Pipelines)
	}
	if sr.Pipelines.Active != 0 || sr.Pipelines.MaxActive <= 0 {
		t.Errorf("stats pipelines active/max = %+v", sr.Pipelines)
	}
	if sr.Requests["pipelines"] == 0 {
		t.Errorf("requests counter = %+v", sr.Requests)
	}
	if sr.Jobs.Succeeded != 3 {
		t.Errorf("stats jobs = %+v, want the 3 wave jobs", sr.Jobs)
	}
}

// TestPipelineValidationHTTP: every malformed spec answers 400 (404 for
// an unknown pipeline-level system) without touching the queue, and the
// daemon still serves a clean pipeline afterwards.
func TestPipelineValidationHTTP(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{Jobs: JobOptions{QueueDepth: 4}})
	ok := `{"dim": 500, "tsize": 10, "dsize": 1}`
	cases := []struct {
		name string
		body string
		want int
	}{
		{"empty body", `{}`, http.StatusBadRequest},
		{"no waves", `{"system":"i7-2600K","waves":[]}`, http.StatusBadRequest},
		{"unknown pipeline system", `{"system":"riscv","waves":[{"jobs":[` + ok + `]}]}`, http.StatusNotFound},
		{"unknown job system", `{"waves":[{"jobs":[{"system":"riscv","dim":500,"tsize":10,"dsize":1}]}]}`, http.StatusBadRequest},
		{"no system anywhere", `{"waves":[{"jobs":[` + ok + `]}]}`, http.StatusBadRequest},
		{"empty wave", `{"system":"i7-2600K","waves":[{"jobs":[]}]}`, http.StatusBadRequest},
		{"oversized wave", `{"system":"i7-2600K","waves":[{"jobs":[` +
			ok + `,` + ok + `,` + ok + `,` + ok + `,` + ok + `]}]}`, http.StatusBadRequest},
		{"duplicate wave names", `{"system":"i7-2600K","waves":[` +
			`{"name":"w","jobs":[` + ok + `]},{"name":"w","jobs":[` + ok + `]}]}`, http.StatusBadRequest},
		{"duplicate job names", `{"system":"i7-2600K","waves":[` +
			`{"jobs":[{"name":"j","dim":500,"tsize":10,"dsize":1},{"name":"j","dim":600,"tsize":10,"dsize":1}]}]}`, http.StatusBadRequest},
		{"self dependency", `{"system":"i7-2600K","waves":[{"name":"w","after":["w"],"jobs":[` + ok + `]}]}`, http.StatusBadRequest},
		{"forward dependency", `{"system":"i7-2600K","waves":[` +
			`{"name":"a","after":["b"],"jobs":[` + ok + `]},{"name":"b","jobs":[` + ok + `]}]}`, http.StatusBadRequest},
		{"unknown dependency", `{"system":"i7-2600K","waves":[{"after":["ghost"],"jobs":[` + ok + `]}]}`, http.StatusBadRequest},
		{"bogus policy", `{"system":"i7-2600K","waves":[{"policy":"maybe","jobs":[` + ok + `]}]}`, http.StatusBadRequest},
		{"retry without budget", `{"system":"i7-2600K","waves":[{"policy":"retry","jobs":[` + ok + `]}]}`, http.StatusBadRequest},
		{"budget without retry", `{"system":"i7-2600K","waves":[{"retry_budget":2,"jobs":[` + ok + `]}]}`, http.StatusBadRequest},
		{"negative budget", `{"system":"i7-2600K","waves":[{"policy":"retry","retry_budget":-1,"jobs":[` + ok + `]}]}`, http.StatusBadRequest},
		{"bad priority", `{"system":"i7-2600K","waves":[{"jobs":[{"dim":500,"tsize":10,"dsize":1,"priority":"urgent"}]}]}`, http.StatusBadRequest},
		{"bad instance", `{"system":"i7-2600K","waves":[{"jobs":[{"dim":-5,"tsize":10,"dsize":1}]}]}`, http.StatusBadRequest},
		{"unknown field", `{"system":"i7-2600K","turbo":true,"waves":[{"jobs":[` + ok + `]}]}`, http.StatusBadRequest},
		{"trailing data", `{"system":"i7-2600K","waves":[{"jobs":[` + ok + `]}]} {"x":1}`, http.StatusBadRequest},
		{"not json", `wave hello`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		_, resp := postPipeline(t, ts.URL, tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status = %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}

	// None of it reached the scheduler, and the daemon is not wedged.
	sr := getStats(t, ts.URL)
	if sr.Pipelines.Submitted != 0 || sr.Jobs.Submitted != 0 {
		t.Errorf("malformed specs leaked: %+v / %+v", sr.Pipelines, sr.Jobs)
	}
	pi, resp := postPipeline(t, ts.URL, `{"system":"i7-2600K","waves":[{"jobs":[`+ok+`]}]}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("clean submit after rejections: status %d", resp.StatusCode)
	}
	if done := pollPipeline(t, ts.URL, pi.ID); done.State != "succeeded" {
		t.Errorf("clean pipeline = %s, want succeeded", done.State)
	}

	// Content-type hygiene: a non-JSON body is refused up front.
	resp2, err := http.Post(ts.URL+"/v1/pipelines", "text/plain", strings.NewReader("hi"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusUnsupportedMediaType {
		t.Errorf("text/plain submit status = %d, want 415", resp2.StatusCode)
	}
}

// TestPipelineCancelHTTP: DELETE on a running pipeline answers 200 and
// the record converges to canceled; a second DELETE conflicts; unknown
// IDs answer 404.
func TestPipelineCancelHTTP(t *testing.T) {
	h, g := newGatedServer(t, JobOptions{Workers: 1})
	pi, resp := postPipeline(t, h.url, `{"system":"i7-2600K","waves":[`+
		`{"jobs":[{"dim":500,"tsize":10,"dsize":1}]},`+
		`{"jobs":[{"dim":600,"tsize":10,"dsize":1}]}]}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	h.waitBusy()
	got, resp := deletePipeline(t, h.url, "/v1/pipelines/"+pi.ID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status = %d, want 200", resp.StatusCode)
	}
	if !got.CancelRequested {
		t.Errorf("cancel snapshot = %+v, want cancel_requested", got)
	}
	g.release()
	done := pollPipeline(t, h.url, pi.ID)
	if done.State != "canceled" {
		t.Fatalf("pipeline = %s, want canceled", done.State)
	}
	if done.Waves[1].State != "skipped" || len(done.Waves[1].JobIDs) != 0 {
		t.Errorf("unstarted wave = %+v, want skipped", done.Waves[1])
	}
	if _, resp := deletePipeline(t, h.url, "/v1/pipelines/"+pi.ID); resp.StatusCode != http.StatusConflict {
		t.Errorf("double cancel status = %d, want 409", resp.StatusCode)
	}
	if _, resp := deletePipeline(t, h.url, "/v1/pipelines/pipe-bogus"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown cancel status = %d, want 404", resp.StatusCode)
	}
	if _, code := getPipeline(t, h.url, "pipe-bogus"); code != http.StatusNotFound {
		t.Errorf("unknown poll status = %d, want 404", code)
	}
}

// TestPipelineOverflow429: MaxPipelines bounds active pipelines; the
// overflow answer carries a derived Retry-After.
func TestPipelineOverflow429(t *testing.T) {
	h, g := newGatedServer(t, JobOptions{Workers: 1, MaxPipelines: 1})
	body := `{"system":"i7-2600K","waves":[{"jobs":[{"dim":500,"tsize":10,"dsize":1}]}]}`
	first, resp := postPipeline(t, h.url, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit status = %d", resp.StatusCode)
	}
	h.waitBusy()
	_, resp = postPipeline(t, h.url, body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow status = %d, want 429", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 || ra > 60 {
		t.Errorf("Retry-After = %q, want an integer within [1, 60]", resp.Header.Get("Retry-After"))
	}
	g.release()
	pollPipeline(t, h.url, first.ID)
	// A slot is free again.
	if _, resp := postPipeline(t, h.url, body); resp.StatusCode != http.StatusAccepted {
		t.Errorf("post-drain submit status = %d, want 202", resp.StatusCode)
	}
	if sr := getStats(t, h.url); sr.Pipelines.Rejected != 1 {
		t.Errorf("stats = %+v, want 1 rejected", sr.Pipelines)
	}
}

// TestPipelineListAndPruneHTTP: the collection lists with a state
// filter, DELETE prunes finished records, and pruned IDs answer 404.
func TestPipelineListAndPruneHTTP(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	body := `{"system":"i7-2600K","waves":[{"jobs":[{"dim":500,"tsize":10,"dsize":1}]}]}`
	var ids []string
	for i := 0; i < 2; i++ {
		pi, resp := postPipeline(t, ts.URL, body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d status = %d", i, resp.StatusCode)
		}
		ids = append(ids, pi.ID)
	}
	for _, id := range ids {
		pollPipeline(t, ts.URL, id)
	}

	list := func(query string) (int, int) {
		resp, err := http.Get(ts.URL + "/v1/pipelines" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			io.Copy(io.Discard, resp.Body)
			return 0, resp.StatusCode
		}
		var body struct {
			Pipelines []PipelineInfo `json:"pipelines"`
			Count     int            `json:"count"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		if body.Count != len(body.Pipelines) {
			t.Errorf("count %d != %d listed", body.Count, len(body.Pipelines))
		}
		return body.Count, resp.StatusCode
	}
	if n, _ := list(""); n != 2 {
		t.Errorf("list all = %d, want 2", n)
	}
	if n, _ := list("?state=succeeded"); n != 2 {
		t.Errorf("list succeeded = %d, want 2", n)
	}
	if n, _ := list("?state=failed"); n != 0 {
		t.Errorf("list failed = %d, want 0", n)
	}
	if _, code := list("?state=bogus"); code != http.StatusBadRequest {
		t.Errorf("bogus state filter status = %d, want 400", code)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/pipelines", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var pruned struct {
		Pruned int `json:"pruned"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&pruned); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || pruned.Pruned != 2 {
		t.Errorf("prune: status %d, pruned %d; want 200 and 2", resp.StatusCode, pruned.Pruned)
	}
	for _, id := range ids {
		if _, code := getPipeline(t, ts.URL, id); code != http.StatusNotFound {
			t.Errorf("pruned pipeline %s answers %d, want 404", id, code)
		}
	}
	if n, _ := list(""); n != 0 {
		t.Errorf("list after prune = %d, want 0", n)
	}
}

// TestPipelineMethodHygiene is the route contract of the route table:
// every table path answers a method it does not list with the JSON 405
// and the table's exact Allow header, GET routes answer HEAD, unknown
// paths get the JSON 404 under "other", and each response is counted
// under the table's route label. It logs the table, and fails if a
// table path has no 405 row here.
func TestPipelineMethodHygiene(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{})
	for _, rt := range routes {
		t.Logf("route %-28s -> %s", rt.pattern, rt.label)
	}
	cases := []struct {
		method, path string
		code         int
		allow, label string
	}{
		{http.MethodPatch, "/v1/pipelines", 405, "DELETE, GET, POST", "pipelines"},
		{http.MethodPut, "/v1/pipelines", 405, "DELETE, GET, POST", "pipelines"},
		{http.MethodPost, "/v1/pipelines/pipe-00000001", 405, "DELETE, GET", "pipelines"},
		{http.MethodPatch, "/v1/pipelines/pipe-00000001", 405, "DELETE, GET", "pipelines"},
		{http.MethodGet, "/v1/tune", 405, "POST", "tune"},
		{http.MethodGet, "/v1/tune/batch", 405, "POST", "batch"},
		{http.MethodDelete, "/v1/jobs", 405, "GET, POST", "jobs"},
		{http.MethodPut, "/v1/jobs/job-00000001", 405, "DELETE, GET", "jobs"},
		{http.MethodPost, "/v1/apps", 405, "GET", "apps"},
		{http.MethodDelete, "/v1/systems", 405, "GET", "systems"},
		{http.MethodPut, "/v1/stats", 405, "GET", "stats"},
		{http.MethodPost, "/metrics", 405, "GET", "metrics"},
		{http.MethodHead, "/v1/systems", 200, "", "systems"},
		{http.MethodGet, "/v1/jobs/job-99999999", 404, "", "jobs"},
		{http.MethodGet, "/v1/jobs/", 404, "", "other"},
		{http.MethodGet, "/v1/jobs/a/b", 404, "", "other"},
		{http.MethodDelete, "/v1/pipelines/", 404, "", "other"},
	}
	// Every pattern the mux can match is a table pattern or a table
	// path's 405 fallback.
	known := map[string]bool{}
	for _, rt := range routes {
		known[rt.pattern] = true
		if _, path, ok := strings.Cut(rt.pattern, " "); ok {
			known[path] = true
		}
	}
	mux := s.routeMux()
	covered := map[string]bool{}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		_, pattern := mux.Handler(req)
		if !known[pattern] {
			t.Errorf("%s %s: matched %q, which is not in the route table", tc.method, tc.path, pattern)
		}
		if tc.code == 405 {
			covered[pattern] = true
		}
		counted := s.m.responses.With(tc.label, strconv.Itoa(tc.code))
		before := counted.Value()
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Errorf("%s %s: status %d, want %d", tc.method, tc.path, resp.StatusCode, tc.code)
		}
		if got := resp.Header.Get("Allow"); got != tc.allow {
			t.Errorf("%s %s: Allow = %q, want %q", tc.method, tc.path, got, tc.allow)
		}
		if tc.method == http.MethodHead {
			if len(body) != 0 {
				t.Errorf("%s %s: %d body bytes, want none", tc.method, tc.path, len(body))
			}
		} else if tc.code != http.StatusOK {
			var e errorResponse
			if err := json.Unmarshal(body, &e); err != nil || e.Error == "" ||
				e.RequestID != resp.Header.Get("X-Request-Id") {
				t.Errorf("%s %s: body %q is not a JSON error with the request ID", tc.method, tc.path, body)
			}
		}
		// The middleware counts the response after writing it.
		waitFor(t, tc.method+" "+tc.path+" counted under "+tc.label, func() bool {
			return counted.Value() == before+1
		})
	}
	for _, rt := range routes {
		if _, path, ok := strings.Cut(rt.pattern, " "); ok && !covered[path] {
			t.Errorf("table path %s has no 405 row", path)
		}
	}
}
