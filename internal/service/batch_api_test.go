package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"testing"

	"repro/internal/hw"
)

func postBatch(t *testing.T, url, body string) (BatchTuneResponse, *http.Response) {
	t.Helper()
	resp, err := http.Post(url+"/v1/tune/batch", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var br BatchTuneResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
			t.Fatal(err)
		}
	}
	return br, resp
}

// TestBatchDedupesRepeatedKeys is the batching contract: a cold batch
// with repeated shapes runs exactly one predict per unique key, and
// every item still gets its result.
func TestBatchDedupesRepeatedKeys(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{})
	body := `{"system":"i7-2600K","items":[
	 {"dim":700,"tsize":200,"dsize":1},
	 {"dim":1500,"tsize":200,"dsize":1},
	 {"dim":700,"tsize":200,"dsize":1},
	 {"rows":700,"cols":700,"tsize":200,"dsize":1},
	 {"dim":1500,"tsize":200,"dsize":1},
	 {"dim":700,"tsize":200,"dsize":1}]}`
	br, resp := postBatch(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if br.Count != 6 || br.Errors != 0 || len(br.Results) != 6 {
		t.Fatalf("batch = count %d errors %d results %d, want 6/0/6", br.Count, br.Errors, len(br.Results))
	}
	// Two unique keys (the rows/cols spelling of 700x700 normalizes onto
	// the dim spelling): exactly two predicts, regardless of six items.
	st := s.Cache().Stats()
	if st.Misses != 2 || st.Hits != 0 {
		t.Errorf("cache stats = %+v, want 2 misses, 0 hits (deduped before lookup)", st)
	}
	for i, r := range br.Results {
		if r.TuneResponse == nil || r.Error != "" {
			t.Fatalf("item %d: %+v, want a result", i, r)
		}
		if r.Params.CPUTile < 1 {
			t.Errorf("item %d: params %+v", i, r.Params)
		}
	}
	// Items 0, 2, 3 and 5 are one key; 1 and 4 the other. Duplicates
	// must share the exact same decision.
	if *br.Results[0].TuneResponse != *br.Results[2].TuneResponse ||
		*br.Results[0].TuneResponse != *br.Results[3].TuneResponse ||
		*br.Results[1].TuneResponse != *br.Results[4].TuneResponse {
		t.Error("duplicate items answered differently")
	}
	if br.Results[0].Instance.Rows != 700 || br.Results[1].Instance.Rows != 1500 {
		t.Errorf("results misaligned with items: %+v / %+v",
			br.Results[0].Instance, br.Results[1].Instance)
	}
}

// TestBatchWarmHits: a second identical batch is served entirely from
// the cache — no further predicts.
func TestBatchWarmHits(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{})
	body := `{"system":"i7-2600K","items":[{"dim":700,"tsize":200,"dsize":1},{"dim":1500,"tsize":10,"dsize":5}]}`
	if _, resp := postBatch(t, ts.URL, body); resp.StatusCode != http.StatusOK {
		t.Fatalf("cold status %d", resp.StatusCode)
	}
	cold := s.Cache().Stats().Misses
	br, resp := postBatch(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK || br.Errors != 0 {
		t.Fatalf("warm batch failed: %d / %+v", resp.StatusCode, br)
	}
	if misses := s.Cache().Stats().Misses; misses != cold {
		t.Errorf("warm batch ran %d extra predicts", misses-cold)
	}
	for i, r := range br.Results {
		if r.Cache != "hit" {
			t.Errorf("item %d served %q, want hit", i, r.Cache)
		}
	}
	if st := s.Cache().Stats(); st.Hits != 2 {
		t.Errorf("cache stats = %+v, want 2 hits", st)
	}
}

// TestBatchPerItemErrors: invalid items (bad shape, unknown system,
// unknown app) and predict failures answer per item; the rest of the
// batch succeeds and the response stays index-aligned.
func TestBatchPerItemErrors(t *testing.T) {
	// i3-540 is a served system with no tuner in the static source, so
	// its predict fails — the per-item shape of a model failure.
	_, ts, _ := newTestServer(t, Config{
		Systems: []hw.System{hw.I7_2600K(), hw.I3_540()},
	})
	body := `{"system":"i7-2600K","items":[
	 {"dim":700,"tsize":200,"dsize":1},
	 {"dim":0,"tsize":200,"dsize":1},
	 {"system":"no-such-box","dim":700,"tsize":200,"dsize":1},
	 {"dim":700,"app":"no-such-app"},
	 {"system":"i3-540","dim":700,"tsize":200,"dsize":1},
	 {"dim":1500,"tsize":200,"dsize":1}]}`
	br, resp := postBatch(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 (item failures must not fail the batch)", resp.StatusCode)
	}
	if br.Count != 6 || br.Errors != 4 {
		t.Fatalf("batch = count %d errors %d, want 6 with 4 errors", br.Count, br.Errors)
	}
	wantErr := []struct {
		idx  int
		frag string
	}{
		{1, "invalid instance"},
		{2, `unknown system "no-such-box"`},
		{3, `unknown app "no-such-app"`},
		{4, "tuning failed"},
	}
	for _, w := range wantErr {
		r := br.Results[w.idx]
		if r.TuneResponse != nil || !strings.Contains(r.Error, w.frag) {
			t.Errorf("item %d = %+v, want error containing %q", w.idx, r, w.frag)
		}
	}
	for _, i := range []int{0, 5} {
		if br.Results[i].TuneResponse == nil || br.Results[i].Error != "" {
			t.Errorf("item %d = %+v, want a clean result", i, br.Results[i])
		}
	}
}

func TestBatchValidation(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})

	// No items.
	if _, resp := postBatch(t, ts.URL, `{"system":"i7-2600K","items":[]}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty items: status %d, want 400", resp.StatusCode)
	}
	// Over the limit.
	items := make([]string, BatchLimit+1)
	for i := range items {
		items[i] = `{"dim":700,"tsize":200,"dsize":1}`
	}
	over := `{"system":"i7-2600K","items":[` + strings.Join(items, ",") + `]}`
	if _, resp := postBatch(t, ts.URL, over); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("over limit: status %d, want 400", resp.StatusCode)
	}
	// Item without any system (no batch default either).
	br, resp := postBatch(t, ts.URL, `{"items":[{"dim":700,"tsize":200,"dsize":1}]}`)
	if resp.StatusCode != http.StatusOK || br.Errors != 1 || !strings.Contains(br.Results[0].Error, "system is required") {
		t.Errorf("missing system: %d / %+v, want per-item error", resp.StatusCode, br)
	}
	// Method and content-type hygiene.
	resp2, err := http.Get(ts.URL + "/v1/tune/batch")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusMethodNotAllowed || resp2.Header.Get("Allow") != http.MethodPost {
		t.Errorf("GET: status %d allow %q", resp2.StatusCode, resp2.Header.Get("Allow"))
	}
	resp3, err := http.Post(ts.URL+"/v1/tune/batch", "text/xml", strings.NewReader("<batch/>"))
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusUnsupportedMediaType {
		t.Errorf("xml body: status %d, want 415", resp3.StatusCode)
	}
}

// TestBatchClientHelper drives the Go client helper end to end against
// an httptest daemon, including the rejected-batch error path.
func TestBatchClientHelper(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	req := BatchTuneRequest{System: "i7-2600K"}
	for _, dim := range []int{700, 1500, 700} {
		ts2, ds := 200.0, 1
		req.Items = append(req.Items, TuneRequest{Dim: dim, TSize: &ts2, DSize: &ds})
	}
	out, err := BatchTune(context.Background(), nil, ts.URL, req)
	if err != nil {
		t.Fatal(err)
	}
	if out.Count != 3 || out.Errors != 0 {
		t.Fatalf("client batch = %+v", out)
	}
	if *out.Results[0].TuneResponse != *out.Results[2].TuneResponse {
		t.Error("duplicate shapes answered differently through the client")
	}

	// A rejected batch (over the limit) surfaces as a client error.
	big := BatchTuneRequest{System: "i7-2600K"}
	for i := 0; i < BatchLimit+1; i++ {
		ts2, ds := 200.0, 1
		big.Items = append(big.Items, TuneRequest{Dim: 700, TSize: &ts2, DSize: &ds})
	}
	if _, err := BatchTune(context.Background(), nil, ts.URL, big); err == nil || !strings.Contains(err.Error(), "batch limit") {
		t.Errorf("over-limit batch err = %v, want rejection naming the limit", err)
	}
}

// TestBatchCounters: batch traffic shows up under its own request
// counter and feeds the shared cache counters.
func TestBatchCounters(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	postBatch(t, ts.URL, `{"system":"i7-2600K","items":[{"dim":700,"tsize":200,"dsize":1}]}`)
	st := getStats(t, ts.URL)
	if st.Requests["batch"] != 1 {
		t.Errorf("batch requests = %d, want 1", st.Requests["batch"])
	}
	if st.Cache.Misses != 1 {
		t.Errorf("cache misses = %d, want 1", st.Cache.Misses)
	}
}

// TestBatchLargeFanOut exercises the parallel fan-out across shards
// with a full-limit batch of distinct shapes. The server sizes
// its cache at GOMAXPROCS shards, so the test raises it to 8.
func TestBatchLargeFanOut(t *testing.T) {
	prev := runtime.GOMAXPROCS(8)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	s, ts, _ := newTestServer(t, Config{CacheSize: 256})
	if n := len(s.Cache().ShardStats()); n != 8 {
		t.Fatalf("shards = %d, want 8", n)
	}
	var items []string
	for i := 0; i < BatchLimit; i++ {
		items = append(items, fmt.Sprintf(`{"dim":%d,"tsize":200,"dsize":1}`, 300+i))
	}
	br, resp := postBatch(t, ts.URL, `{"system":"i7-2600K","items":[`+strings.Join(items, ",")+`]}`)
	if resp.StatusCode != http.StatusOK || br.Errors != 0 {
		t.Fatalf("fan-out batch: %d / %+v", resp.StatusCode, br)
	}
	if got := s.Cache().Stats().Misses; got != uint64(BatchLimit) {
		t.Errorf("predicts = %d, want %d distinct", got, BatchLimit)
	}
}
