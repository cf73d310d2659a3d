package service

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestTuneHitAllocations bounds the heap allocations of one served cache
// hit through the whole handler (middleware, decode, app resolve, cache
// lookup, encode), with each request and recorder built outside the
// count.
func TestTuneHitAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	// Measured 39 with slow-request tracing off (no http.request span).
	const limit = 40
	s, _, _ := newTestServer(t, Config{})
	h := s.Handler()
	body := []byte(`{"system":"i7-2600K","dim":1900,"app":"nash","params":{"rounds":2}}`)
	const runs = 50
	reqs := make([]*http.Request, runs+2)
	recs := make([]*httptest.ResponseRecorder, len(reqs))
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodPost, "/v1/tune", bytes.NewReader(body))
		reqs[i].Header.Set("Content-Type", "application/json")
		recs[i] = httptest.NewRecorder()
	}
	// The first request fills the cache; every later one is a hit.
	h.ServeHTTP(recs[0], reqs[0])
	if recs[0].Code != http.StatusOK {
		t.Fatalf("status %d: %s", recs[0].Code, recs[0].Body)
	}
	i := 1
	allocs := testing.AllocsPerRun(runs, func() {
		h.ServeHTTP(recs[i], reqs[i])
		i++
	})
	for _, w := range recs[1:i] {
		if w.Code != http.StatusOK || !bytes.Contains(w.Body.Bytes(), []byte(`"hit"`)) {
			t.Fatalf("status %d, want a 200 hit: %s", w.Code, w.Body)
		}
	}
	t.Logf("%v allocations per served hit", allocs)
	if allocs > limit {
		t.Errorf("served hit makes %v allocations, want <= %d", allocs, limit)
	}
}
