package repro

// End-to-end integration test of the full workflow the paper describes
// plus this reproduction's persistence extensions:
//
//	exhaustive sweep -> CSV -> reload -> train -> save tuner -> load
//	tuner -> predict for an unseen app -> simulate functionally ->
//	verify against the native serial reference.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cpuexec"
	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/hw"
	"repro/internal/kernels"
	"repro/internal/plan"
	"repro/internal/service"
	"repro/internal/telemetry"
)

func TestFactoryWorkflowEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test skipped in -short")
	}
	sys := hw.I7_2600K()

	// 1. Sweep the synthetic application.
	sr, err := core.Exhaustive(sys, core.QuickSpace(), core.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// 2. Persist and reload the sweep.
	var buf bytes.Buffer
	if err := sr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := core.ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}

	// 3. Train "in the factory" and ship the tuner as JSON.
	tuner, err := core.Train(loaded, core.DefaultTrainOptions())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tuner.json")
	if err := core.SavePredictor(path, tuner); err != nil {
		t.Fatal(err)
	}
	deployed, err := core.LoadPredictor(path)
	if err != nil {
		t.Fatal(err)
	}

	// 4. Deploy on an unseen application: Nash at an off-grid dim.
	k := kernels.NewNash(4)
	dim := 333
	inst := plan.Instance{Dim: dim, TSize: k.TSize(), DSize: k.DSize()}
	pred := deployed.Predict(inst)
	if pred.Serial {
		t.Fatalf("coarse Nash instance predicted serial: %v", pred)
	}
	if _, err := plan.Build(inst, pred.Par); err != nil {
		t.Fatalf("invalid deployed prediction: %v", err)
	}

	// 5. The tuned configuration must beat the serial baseline.
	auto, err := engine.Estimate(sys, inst, pred.Par, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	serial := engine.SerialNs(sys, inst)
	if auto.RTimeNs >= serial {
		t.Errorf("tuned run (%v) no faster than serial (%v)", auto.RTimeNs, serial)
	}

	// 6. Execute the prediction functionally and verify every cell.
	res, g, err := engine.Simulate(sys, plan.Instance{Dim: dim}, k, pred.Par, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := grid.NewRect(dim, dim, k.DSize())
	cpuexec.RunSerial(k, want)
	if !g.Equal(want) {
		t.Error("deployed hybrid run computed wrong results")
	}
	if res.RTimeNs <= 0 {
		t.Error("non-positive virtual runtime")
	}

	// 7. Runtime refinement must not regress the deployment.
	online := core.NewOnlineTuner(deployed)
	_, st, err := online.Refine(inst)
	if err != nil {
		t.Fatal(err)
	}
	if st.FinalNs > auto.RTimeNs*1.0000001 {
		t.Errorf("online refinement regressed: %v > %v", st.FinalNs, auto.RTimeNs)
	}
}

func TestAllSystemsProduceConsistentPipelines(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test skipped in -short")
	}
	// Every modeled system must support the full pipeline and keep the
	// functional invariant on a hybrid prediction.
	for _, sys := range hw.Systems() {
		sr, err := core.Exhaustive(sys, core.QuickSpace(), core.SearchOptions{})
		if err != nil {
			t.Fatalf("%s: %v", sys.Name, err)
		}
		tuner, err := core.Train(sr, core.DefaultTrainOptions())
		if err != nil {
			t.Fatalf("%s: %v", sys.Name, err)
		}
		k := kernels.NewSynthetic(2000, 1)
		dim := 200
		pred := tuner.Predict(plan.Instance{Dim: dim, TSize: k.TSize(), DSize: k.DSize()})
		if pred.Serial {
			continue
		}
		_, g, err := engine.Simulate(sys, plan.Instance{Dim: dim}, k, pred.Par, engine.Options{})
		if err != nil {
			t.Fatalf("%s: %v", sys.Name, err)
		}
		want := grid.NewRect(dim, dim, k.DSize())
		cpuexec.RunSerial(k, want)
		if !g.Equal(want) {
			t.Errorf("%s: functional mismatch", sys.Name)
		}
	}
}

// TestPipelineOverHTTP drives a wave-DAG pipeline end to end through
// the daemon's HTTP surface: an align wave fanning out across three
// catalog applications, then a fold wave admitted only after the
// barrier. It asserts the job records' timestamps respect the barrier
// and that /v1/stats accounts for the pipeline.
func TestPipelineOverHTTP(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test skipped in -short")
	}
	sys := hw.I7_2600K()
	sr, err := core.Exhaustive(sys, core.QuickSpace(), core.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tuner, err := core.Train(sr, core.DefaultTrainOptions())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := service.New(service.Config{
		Systems: []hw.System{sys},
		Tuners:  service.NewStaticSource(tuner),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := `{
		"name": "align-then-fold",
		"system": "i7-2600K",
		"waves": [
			{"name": "align", "jobs": [
				{"name": "sw",  "app": "swaffine", "dim": 200},
				{"name": "lcs", "app": "lcs",      "dim": 200},
				{"name": "dtw", "app": "dtw",      "dim": 200}
			]},
			{"name": "fold", "after": ["align"], "policy": "continue", "jobs": [
				{"name": "rna", "app": "nussinov", "dim": 96}
			]}
		]
	}`
	resp, err := http.Post(ts.URL+"/v1/pipelines", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("submit status = %d: %s", resp.StatusCode, b)
	}
	var pi service.PipelineInfo
	if err := json.NewDecoder(resp.Body).Decode(&pi); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	getJSON := func(path string, out any) int {
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		if r.StatusCode == http.StatusOK {
			if err := json.NewDecoder(r.Body).Decode(out); err != nil {
				t.Fatal(err)
			}
		} else {
			io.Copy(io.Discard, r.Body)
		}
		return r.StatusCode
	}

	deadline := time.Now().Add(60 * time.Second)
	for {
		if code := getJSON("/v1/pipelines/"+pi.ID, &pi); code != http.StatusOK {
			t.Fatalf("polling pipeline: status %d", code)
		}
		if pi.State == "succeeded" || pi.State == "failed" || pi.State == "canceled" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pipeline stuck in %s", pi.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if pi.State != "succeeded" {
		t.Fatalf("pipeline = %s (err %q), want succeeded", pi.State, pi.Error)
	}

	// Every wave job is an ordinary record; the fold job must not have
	// started before the slowest align job finished (Go timestamps are
	// monotonic, so this is a sound ordering check).
	var alignDone time.Time
	for _, id := range pi.Waves[0].JobIDs {
		var ji service.JobInfo
		if code := getJSON("/v1/jobs/"+id, &ji); code != http.StatusOK {
			t.Fatalf("align job %s: status %d", id, code)
		}
		if ji.State != "succeeded" || ji.Result == nil {
			t.Fatalf("align job %s = %s (err %q)", id, ji.State, ji.Error)
		}
		if ji.FinishedAt != nil && ji.FinishedAt.After(alignDone) {
			alignDone = *ji.FinishedAt
		}
	}
	for _, id := range pi.Waves[1].JobIDs {
		var ji service.JobInfo
		if code := getJSON("/v1/jobs/"+id, &ji); code != http.StatusOK {
			t.Fatalf("fold job %s: status %d", id, code)
		}
		if ji.State != "succeeded" {
			t.Fatalf("fold job %s = %s (err %q)", id, ji.State, ji.Error)
		}
		if ji.StartedAt == nil || ji.StartedAt.Before(alignDone) {
			t.Errorf("fold job %s started %v, before the align barrier at %v",
				id, ji.StartedAt, alignDone)
		}
	}

	var stats service.StatsResponse
	if code := getJSON("/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if stats.Pipelines.Submitted != 1 || stats.Pipelines.Succeeded != 1 ||
		stats.Pipelines.WavesResolved != 2 || stats.Pipelines.Active != 0 {
		t.Errorf("pipeline stats = %+v", stats.Pipelines)
	}
	if stats.Jobs.Succeeded != 4 {
		t.Errorf("job stats = %+v, want the 4 wave jobs", stats.Jobs)
	}
	if stats.Requests["pipelines"] == 0 {
		t.Errorf("request counters = %+v", stats.Requests)
	}
}

// TestMetricsScrapeEndToEnd boots the daemon, drives every traffic
// class through it — tune hits and misses, a batch, jobs, a pipeline,
// an error — and then scrapes GET /metrics, failing on any output the
// strict exposition parser rejects and on missing instrumentation
// (the CI scrape gate).
func TestMetricsScrapeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test skipped in -short")
	}
	sys := hw.I7_2600K()
	sr, err := core.Exhaustive(sys, core.QuickSpace(), core.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tuner, err := core.Train(sr, core.DefaultTrainOptions())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := service.New(service.Config{
		Systems: []hw.System{sys},
		Tuners:  service.NewStaticSource(tuner),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(path, body string) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	drain := func(resp *http.Response) {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	// Tune miss then hit, a batch, and a rejected request.
	drain(post("/v1/tune", `{"system":"i7-2600K","dim":500,"tsize":10,"dsize":1}`))
	drain(post("/v1/tune", `{"system":"i7-2600K","dim":500,"tsize":10,"dsize":1}`))
	drain(post("/v1/tune/batch", `{"system":"i7-2600K","items":[{"dim":700,"tsize":10,"dsize":1}]}`))
	if resp := post("/v1/tune", `{"system":"riscv","dim":500,"tsize":10,"dsize":1}`); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("bad tune status %d, want 404", resp.StatusCode)
	} else {
		drain(resp)
	}

	// A job and a single-wave pipeline, run to completion so the
	// queue-wait, execution, wave and engine histograms all observe.
	resp := post("/v1/jobs", `{"system":"i7-2600K","dim":300,"tsize":10,"dsize":1}`)
	var ji service.JobInfo
	if err := json.NewDecoder(resp.Body).Decode(&ji); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	deadline := time.Now().Add(60 * time.Second)
	for {
		r, err := http.Get(ts.URL + "/v1/jobs/" + ji.ID)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(r.Body).Decode(&ji); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if ji.State == "succeeded" || ji.State == "failed" || ji.State == "canceled" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", ji.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp = post("/v1/pipelines", `{"system":"i7-2600K","waves":[{"jobs":[{"dim":300,"tsize":10,"dsize":1}]}]}`)
	var pi service.PipelineInfo
	if err := json.NewDecoder(resp.Body).Decode(&pi); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for {
		r, err := http.Get(ts.URL + "/v1/pipelines/" + pi.ID)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(r.Body).Decode(&pi); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if pi.State == "succeeded" || pi.State == "failed" || pi.State == "canceled" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pipeline stuck in %s", pi.State)
		}
		time.Sleep(5 * time.Millisecond)
	}

	r, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", r.StatusCode)
	}
	text, err := io.ReadAll(r.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := telemetry.ValidateExposition(bytes.NewReader(text)); err != nil {
		t.Fatalf("unparseable exposition: %v\n%s", err, text)
	}
	for _, want := range []string{
		`waved_http_requests_total{route="tune"}`,
		`waved_http_errors_total{route="tune"} 1`,
		`waved_cache_lookups_total{shard=`,
		"waved_cache_lookup_duration_seconds_count",
		"waved_tuner_predict_duration_seconds_count",
		"waved_job_queue_wait_seconds_count 2",
		"waved_job_execution_seconds_count 2",
		"waved_pipeline_wave_seconds_count 1",
		`waved_jobs_events_total{event="succeeded"} 2`,
		"waved_pipeline_waves_resolved_total 1",
		"waved_uptime_seconds",
	} {
		if !bytes.Contains(text, []byte(want)) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if bytes.Contains(text, []byte("waved_engine_measure_seconds_count 0")) {
		t.Error("engine measurements not observed")
	}
}
