package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"repro/internal/jobs"
)

// serve runs one request through the server's full handler stack and
// returns the recorded response.
func serve(t *testing.T, s *Server, method, path, body string, header ...string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, bytes.NewReader([]byte(body)))
	req.Header.Set("Content-Type", "application/json")
	for i := 0; i+1 < len(header); i += 2 {
		req.Header.Set(header[i], header[i+1])
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

// waitIdle waits until no job is queued or running and no pipeline is
// active, so the record lists hold still.
func waitIdle(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		st := s.jobs.Stats()
		if st.Queued == 0 && st.Running == 0 && s.jobs.PipelineStats().Active == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("jobs still active: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// marshalJobList and marshalPipelineList are the map-form bodies the
// list endpoints answered with before they were streamed; the streamed
// bodies must match them byte for byte.
func marshalJobList(t *testing.T, s *Server, f jobs.Filter) []byte {
	t.Helper()
	list := s.jobs.List(f)
	infos := make([]JobInfo, 0, len(list))
	for _, j := range list {
		infos = append(infos, jobInfo(j))
	}
	b, err := json.Marshal(map[string]any{"jobs": infos, "count": len(infos)})
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

func marshalPipelineList(t *testing.T, s *Server, f jobs.PipelineFilter) []byte {
	t.Helper()
	list := s.jobs.ListPipelines(f)
	infos := make([]PipelineInfo, 0, len(list))
	for _, p := range list {
		infos = append(infos, pipelineInfo(p))
	}
	b, err := json.Marshal(map[string]any{"pipelines": infos, "count": len(infos)})
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// TestListBodiesMatchMarshal pins the streamed GET /v1/jobs and
// GET /v1/pipelines bodies to the map-form json.Marshal byte for byte:
// empty lists, state and system filters, records carrying app_params,
// results, refinement stats, HTML-escaped strings and multi-wave
// pipelines.
func TestListBodiesMatchMarshal(t *testing.T) {
	s, _, _ := newTestServer(t, Config{})
	check := func(path string, want []byte) {
		t.Helper()
		rec := serve(t, s, http.MethodGet, path, "")
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", path, rec.Code, rec.Body)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("GET %s: Content-Type %q", path, ct)
		}
		if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
			t.Errorf("GET %s body differs from json.Marshal\n got: %s\nwant: %s", path, got, want)
		}
	}
	succeeded, queued := jobs.StateSucceeded, jobs.StateQueued
	pipeOK := jobs.PipeSucceeded

	check("/v1/jobs", []byte(`{"count":0,"jobs":[]}`+"\n"))
	check("/v1/pipelines", []byte(`{"count":0,"pipelines":[]}`+"\n"))

	submits := []struct{ path, body string }{
		{"/v1/jobs", `{"system":"i7-2600K","dim":500,"tsize":10,"dsize":1}`},
		{"/v1/jobs", `{"system":"i7-2600K","dim":700,"app":"nash","params":{"rounds":2}}`},
		{"/v1/jobs", `{"system":"i7-2600K","dim":1900,"tsize":3000,"dsize":1,"refine":true,"priority":"high"}`},
		{"/v1/pipelines", `{"name":"align-then-fold","system":"i7-2600K","waves":[
			{"name":"align","jobs":[{"app":"swaffine","dim":600,"params":{"gap_open":12}},{"dim":800,"tsize":200,"dsize":2}]},
			{"name":"fold","after":["align"],"policy":"continue","jobs":[{"dim":500,"tsize":10,"dsize":1,"refine":true}]}]}`},
		{"/v1/pipelines", `{"waves":[{"jobs":[{"system":"i7-2600K","dim":300,"tsize":10,"dsize":1}]}]}`},
	}
	for i, sub := range submits {
		// A request ID with characters json.Marshal escapes exercises
		// the per-record encoder's HTML escaping.
		rec := serve(t, s, http.MethodPost, sub.path, sub.body, "X-Request-ID", fmt.Sprintf(`<id-%d>&"q"`, i))
		if rec.Code != http.StatusAccepted {
			t.Fatalf("POST %s: status %d: %s", sub.path, rec.Code, rec.Body)
		}
	}
	waitIdle(t, s)

	check("/v1/jobs", marshalJobList(t, s, jobs.Filter{}))
	check("/v1/jobs?state=succeeded", marshalJobList(t, s, jobs.Filter{State: &succeeded}))
	check("/v1/jobs?state=queued", marshalJobList(t, s, jobs.Filter{State: &queued}))
	check("/v1/jobs?system=i7-2600K", marshalJobList(t, s, jobs.Filter{System: "i7-2600K"}))
	check("/v1/jobs?state=succeeded&system=i7-2600K",
		marshalJobList(t, s, jobs.Filter{State: &succeeded, System: "i7-2600K"}))
	check("/v1/pipelines", marshalPipelineList(t, s, jobs.PipelineFilter{}))
	check("/v1/pipelines?state=succeeded", marshalPipelineList(t, s, jobs.PipelineFilter{State: &pipeOK}))

	// The records the checks compared must carry every optional part.
	var all struct{ Jobs []JobInfo }
	if err := json.Unmarshal(marshalJobList(t, s, jobs.Filter{}), &all); err != nil {
		t.Fatal(err)
	}
	var params, refined bool
	for _, j := range all.Jobs {
		params = params || len(j.AppParams) > 0
		refined = refined || (j.Result != nil && j.Result.Refinement != nil)
	}
	if len(all.Jobs) != 7 || !params || !refined {
		t.Errorf("fixture has %d jobs (app_params %v, refinement %v), want 7 with both", len(all.Jobs), params, refined)
	}
}

// discardWriter is a ResponseWriter that keeps no body, so a memory
// measurement counts only what the handler itself allocates.
type discardWriter struct {
	h http.Header
	n int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(int)             {}
func (w *discardWriter) Write(b []byte) (int, error) { w.n += len(b); return len(b), nil }

// TestListResponseMemory bounds the heap bytes one GET /v1/jobs and one
// GET /v1/pipelines allocate with MaxRecords finished records of each.
// A streamed body costs the record snapshot and one record's encoding
// at a time, where a body built whole would add its wire-form slice,
// the doubling encode buffer and the marshalled copy.
func TestListResponseMemory(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation totals are not stable under -race")
	}
	// Measured 856 KiB (jobs) and 570 KiB (pipelines) per GET on
	// linux/amd64, for bodies of about 660 KiB and 320 KiB.
	const jobsLimit, pipelinesLimit = 940 << 10, 630 << 10
	const records = jobs.DefaultMaxRecords
	s, _, _ := newTestServer(t, Config{Jobs: JobOptions{
		QueueDepth: records, MaxPipelines: records,
	}})
	// Each pipeline is one wave of one job, so both tables fill to
	// MaxRecords; every other job is a refined nash run with app_params.
	for i := 0; i < records; i++ {
		job := fmt.Sprintf(`{"dim":%d,"tsize":10,"dsize":1}`, 300+i%7*100)
		if i%2 == 1 {
			job = fmt.Sprintf(`{"dim":%d,"app":"nash","params":{"rounds":2},"refine":true}`, 300+i%7*100)
		}
		body := `{"system":"i7-2600K","waves":[{"jobs":[` + job + `]}]}`
		if rec := serve(t, s, http.MethodPost, "/v1/pipelines", body); rec.Code != http.StatusAccepted {
			t.Fatalf("pipeline %d: status %d: %s", i, rec.Code, rec.Body)
		}
	}
	waitIdle(t, s)
	if nj, np := len(s.jobs.List(jobs.Filter{})), len(s.jobs.ListPipelines(jobs.PipelineFilter{})); nj != records || np != records {
		t.Fatalf("%d jobs and %d pipelines listed, want %d of each", nj, np, records)
	}

	h := s.Handler()
	for _, tc := range []struct {
		path  string
		limit uint64
	}{
		{"/v1/jobs", jobsLimit},
		{"/v1/pipelines", pipelinesLimit},
	} {
		const runs = 8
		reqs := make([]*http.Request, runs)
		ws := make([]*discardWriter, runs)
		for i := range reqs {
			reqs[i] = httptest.NewRequest(http.MethodGet, tc.path, nil)
			ws[i] = &discardWriter{h: http.Header{}}
		}
		h.ServeHTTP(ws[0], reqs[0]) // warm the encoder caches
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 1; i < runs; i++ {
			h.ServeHTTP(ws[i], reqs[i])
		}
		runtime.ReadMemStats(&after)
		perGet := (after.TotalAlloc - before.TotalAlloc) / (runs - 1)
		t.Logf("GET %s: %d records, %d body bytes, %d bytes (%d KiB) allocated per GET",
			tc.path, records, ws[1].n, perGet, perGet>>10)
		if perGet > tc.limit {
			t.Errorf("GET %s allocates %d bytes per request, want <= %d", tc.path, perGet, tc.limit)
		}
	}
}
