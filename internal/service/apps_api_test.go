package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/apps"
)

func getApps(t *testing.T, url string) (map[string]AppInfo, int) {
	t.Helper()
	resp, err := http.Get(url + "/v1/apps")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/apps status %d", resp.StatusCode)
	}
	var body struct {
		Apps  []AppInfo `json:"apps"`
		Count int       `json:"count"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]AppInfo, len(body.Apps))
	for _, a := range body.Apps {
		byName[a.Name] = a
	}
	return byName, body.Count
}

// TestAppsEndpoint: GET /v1/apps lists the full catalog with
// granularities and parameter schemas matching the registry.
func TestAppsEndpoint(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	byName, count := getApps(t, ts.URL)
	if count < 8 || count != len(byName) {
		t.Fatalf("count = %d (%d distinct), want >= 8", count, len(byName))
	}
	for _, want := range []string{"synthetic", "nash", "seqcompare", "knapsack", "swaffine", "lcs", "dtw", "nussinov"} {
		if _, ok := byName[want]; !ok {
			t.Errorf("catalog missing %q", want)
		}
	}
	if nash := byName["nash"]; nash.TSize == nil || *nash.TSize != 750 || nash.DSize == nil || *nash.DSize != 4 {
		t.Errorf("nash granularity = %+v, want tsize 750 dsize 4", nash)
	}
	if syn := byName["synthetic"]; syn.TSize != nil || syn.DSize != nil {
		t.Errorf("synthetic must report no default granularity, got %+v", syn)
	} else {
		required := 0
		for _, p := range syn.Params {
			if p.Required {
				required++
			}
		}
		if required != 2 {
			t.Errorf("synthetic must declare tsize and dsize required, got %+v", syn.Params)
		}
	}
	if !byName["nussinov"].SquareOnly {
		t.Error("nussinov must be marked square_only")
	}

	// Method hygiene.
	resp, err := http.Post(ts.URL+"/v1/apps", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/apps status %d, want 405", resp.StatusCode)
	}
	st := getStats(t, ts.URL)
	if st.Requests["apps"] != 1 {
		t.Errorf("apps request counter = %d, want 1", st.Requests["apps"])
	}
}

// TestEveryCatalogAppTunesAndRuns is the acceptance criterion end to
// end: every registered application is tunable via POST /v1/tune and
// runnable via POST /v1/jobs, with no per-app code in the service.
func TestEveryCatalogAppTunesAndRuns(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{})
	for _, a := range apps.All() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			body := fmt.Sprintf(`{"system":"i7-2600K","dim":300,"app":%q`, a.Name)
			if _, _, ok := a.DefaultGranularity(); !ok {
				// The synthetic trainer's granularity is a required input.
				body += `,"params":{"tsize":10,"dsize":1}`
			}
			body += `}`

			tr, resp := postTune(t, ts.URL, body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("POST /v1/tune status %d", resp.StatusCode)
			}
			if tr.Instance.TSize <= 0 {
				t.Errorf("tune response granularity not populated: %+v", tr.Instance)
			}

			jresp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
				bytes.NewReader([]byte(body)))
			if err != nil {
				t.Fatal(err)
			}
			var ji JobInfo
			if err := json.NewDecoder(jresp.Body).Decode(&ji); err != nil {
				t.Fatal(err)
			}
			jresp.Body.Close()
			if jresp.StatusCode != http.StatusAccepted {
				t.Fatalf("POST /v1/jobs status %d", jresp.StatusCode)
			}
			if ji.App != a.Name {
				t.Errorf("job app echo = %q, want %q", ji.App, a.Name)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			job, err := s.Jobs().Await(ctx, ji.ID)
			if err != nil {
				t.Fatal(err)
			}
			if job.State.String() != "succeeded" {
				t.Fatalf("job state = %s (err %q)", job.State, job.Err)
			}
			if job.Result == nil || job.Result.MeasuredNs <= 0 {
				t.Errorf("job result missing measurement: %+v", job.Result)
			}
		})
	}
}

// TestAppParamsFlow: params reach the granularity derivation and are
// echoed on job records.
func TestAppParamsFlow(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	tr, resp := postTune(t, ts.URL,
		`{"system":"i7-2600K","dim":700,"app":"nash","params":{"rounds":3}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if tr.Instance.TSize != 2250 {
		t.Errorf("params.rounds=3 gave tsize %g, want 2250", tr.Instance.TSize)
	}
	// App parameters have one spelling: a top-level rounds is an
	// unknown field, and a top-level tsize/dsize beside an app is a 400
	// that points at params.
	if _, resp := postTune(t, ts.URL,
		`{"system":"i7-2600K","dim":700,"app":"nash","rounds":5}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("top-level rounds status = %d, want 400", resp.StatusCode)
	}
	for _, body := range []string{
		`{"system":"i7-2600K","dim":700,"app":"synthetic","params":{"tsize":100,"dsize":1},"tsize":5}`,
		`{"system":"i7-2600K","dim":700,"app":"nash","tsize":9000,"dsize":1}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/tune", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var e errorResponse
		err = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, "params") {
			t.Errorf("%s: status %d, error %q (%v), want a 400 naming params", body, resp.StatusCode, e.Error, err)
		}
	}

	jresp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader([]byte(
		`{"system":"i7-2600K","dim":300,"app":"swaffine","params":{"gap_open":12}}`)))
	if err != nil {
		t.Fatal(err)
	}
	defer jresp.Body.Close()
	var ji JobInfo
	if err := json.NewDecoder(jresp.Body).Decode(&ji); err != nil {
		t.Fatal(err)
	}
	if ji.AppParams["gap_open"] != 12 {
		t.Errorf("job record app_params = %v, want gap_open 12", ji.AppParams)
	}

	// The echo is the parameters that shaped the instance.
	jresp2, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader([]byte(
		`{"system":"i7-2600K","dim":300,"app":"nash","params":{"rounds":2}}`)))
	if err != nil {
		t.Fatal(err)
	}
	defer jresp2.Body.Close()
	var ji2 JobInfo
	if err := json.NewDecoder(jresp2.Body).Decode(&ji2); err != nil {
		t.Fatal(err)
	}
	if ji2.AppParams["rounds"] != 2 {
		t.Errorf("rounds not echoed in app_params: %v", ji2.AppParams)
	}
	if ji2.Instance.TSize != 1500 {
		t.Errorf("rounds=2 job tsize = %g, want 1500", ji2.Instance.TSize)
	}
}

// TestAppValidationFromRegistry: the unknown-app message enumerates the
// registry (so it can never drift from the catalog), schema violations
// are 400s, and shape constraints are enforced.
func TestAppValidationFromRegistry(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	readErr := func(body string) (int, string) {
		resp, err := http.Post(ts.URL+"/v1/tune", "application/json",
			bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return resp.StatusCode, e.Error
	}

	code, msg := readErr(`{"system":"i7-2600K","dim":500,"app":"raytrace"}`)
	if code != http.StatusBadRequest {
		t.Fatalf("unknown app status %d", code)
	}
	for _, name := range apps.Names() {
		if !strings.Contains(msg, name) {
			t.Errorf("unknown-app error %q does not enumerate %q", msg, name)
		}
	}

	cases := []struct {
		name, body string
	}{
		{"unknown param", `{"system":"i7-2600K","dim":500,"app":"nash","params":{"bogus":1}}`},
		{"non-integer rounds", `{"system":"i7-2600K","dim":500,"app":"nash","params":{"rounds":1.5}}`},
		{"out-of-range rounds", `{"system":"i7-2600K","dim":500,"app":"nash","params":{"rounds":0}}`},
		{"synthetic without granularity", `{"system":"i7-2600K","dim":500,"app":"synthetic"}`},
		{"rectangular nussinov", `{"system":"i7-2600K","rows":600,"cols":1400,"app":"nussinov"}`},
		{"params without app", `{"system":"i7-2600K","dim":500,"tsize":1.5,"dsize":2,"params":{"gap_open":12}}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if code, _ := readErr(tc.body); code != http.StatusBadRequest {
				t.Errorf("status = %d, want 400", code)
			}
		})
	}
}

// TestMaskedAppInstanceKeepsLiveCells guards the serving path of the
// frontier refactor: resolving a masked application through the
// registry must carry the live-cell count into the served instance, so
// two mask densities of one shape fork into distinct plan-cache keys
// instead of silently sharing a dense plan.
func TestMaskedAppInstanceKeepsLiveCells(t *testing.T) {
	dense, _, err := TuneRequest{Dim: 96, App: "morphrecon"}.instanceFrom()
	if err != nil {
		t.Fatal(err)
	}
	if dense.LiveCells == 0 {
		t.Fatal("served morphrecon instance lost its live-cell count")
	}
	sparse, _, err := TuneRequest{
		Dim: 96, App: "morphrecon", Params: map[string]float64{"threshold": 200},
	}.instanceFrom()
	if err != nil {
		t.Fatal(err)
	}
	if sparse.LiveCells >= dense.LiveCells {
		t.Errorf("threshold 200 live cells %d, want < default's %d", sparse.LiveCells, dense.LiveCells)
	}
	if dense.CacheKey() == sparse.CacheKey() {
		t.Errorf("mask densities share cache key %q", dense.CacheKey())
	}

	tri, _, err := TuneRequest{Dim: 96, App: "nussinov"}.instanceFrom()
	if err != nil {
		t.Fatal(err)
	}
	if want := 96 * 97 / 2; tri.LiveCells != want {
		t.Errorf("served nussinov LiveCells = %d, want %d", tri.LiveCells, want)
	}
}
