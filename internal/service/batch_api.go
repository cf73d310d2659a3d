package service

// The /v1/tune/batch surface: many tune queries in one request. Dynamic
// autotuners amortize tuning cost by reusing and batching queries (cf.
// Kernel Tuning Toolkit, arXiv:1910.08498); here a client that needs
// plans for a whole sweep of shapes pays one round trip instead of N,
// repeated keys inside the batch collapse to a single cache lookup (and
// so at most one model evaluation), and distinct keys fan out across the
// sharded plan cache in parallel. Item failures are reported per item —
// one bad shape never fails the rest of the batch.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"

	"repro/internal/plan"
	"repro/internal/tunecache"
)

// BatchLimit caps the items of one POST /v1/tune/batch request.
const BatchLimit = 64

// BatchTuneRequest is the body of POST /v1/tune/batch. System, when set,
// is the default for items that do not name their own.
type BatchTuneRequest struct {
	System string        `json:"system,omitempty"`
	Items  []TuneRequest `json:"items"`
}

// BatchTuneResult is one item's outcome: the tune response on success,
// or an error message scoped to that item alone.
type BatchTuneResult struct {
	*TuneResponse
	Error string `json:"error,omitempty"`
}

// BatchTuneResponse is the body of a POST /v1/tune/batch reply. Results
// aligns index-for-index with the request's items.
type BatchTuneResponse struct {
	Count   int               `json:"count"`
	Errors  int               `json:"errors"`
	Results []BatchTuneResult `json:"results"`
}

// batchItem is the resolved form of one request item before the fan-out.
type batchItem struct {
	system string
	key    string // tunecache.Key once resolved; "" for invalid items
	err    string
}

func (s *Server) handleTuneBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchTuneRequest
	// The body bound scales with the batch limit so a full batch of
	// maximal items still decodes (each item is well under 1 KiB).
	if !s.decodeBody(w, r, int64(1+BatchLimit)<<10, &req) {
		return
	}
	if len(req.Items) == 0 {
		s.writeError(w, http.StatusBadRequest, "items is required and must not be empty")
		return
	}
	if len(req.Items) > BatchLimit {
		s.writeError(w, http.StatusBadRequest,
			"%d items exceed the batch limit %d", len(req.Items), BatchLimit)
		return
	}

	// Resolve every item first: system fallback, instance validation,
	// cache key. Invalid items keep their error and sit out the fan-out.
	items := make([]batchItem, len(req.Items))
	insts := make(map[string]tuneKeyWork, len(req.Items))
	for i, it := range req.Items {
		system := it.System
		if system == "" {
			system = req.System
		}
		items[i].system = system
		if system == "" {
			items[i].err = "system is required (per item or batch-level)"
			continue
		}
		if _, ok := s.systems[system]; !ok {
			items[i].err = fmt.Sprintf("unknown system %q", system)
			continue
		}
		inst, _, err := it.instanceFrom()
		if err != nil {
			items[i].err = fmt.Sprintf("invalid instance: %v", err)
			continue
		}
		k := tunecache.Key(system, inst)
		items[i].key = k
		if _, dup := insts[k]; !dup {
			insts[k] = tuneKeyWork{system: system, inst: inst}
		}
	}

	// Fan out: exactly one cache lookup per unique key, concurrently, so
	// distinct keys ride different cache shards in parallel. Repeated
	// keys inside the batch share one lookup (and its outcome label) —
	// the cache's singleflight would already collapse the predicts, but
	// deduping before the fan-out also avoids burning a goroutine and a
	// hit-path lock acquisition per duplicate.
	results := make(map[string]tuneKeyResult, len(insts))
	var mu sync.Mutex
	var wg sync.WaitGroup
	reqCtx := r.Context()
	for k, work := range insts {
		wg.Add(1)
		go func(k string, work tuneKeyWork) {
			defer wg.Done()
			// Each unique key gets its own cache.lookup span — a
			// concurrent child of the request's http.request span — so
			// a slow batch's trace shows which shard/key stalled it.
			p, outcome, err := s.lookup(reqCtx, work.system, work.inst)
			mu.Lock()
			results[k] = tuneKeyResult{plan: p, outcome: outcome, err: err}
			mu.Unlock()
		}(k, work)
	}
	wg.Wait()

	resp := BatchTuneResponse{Count: len(items), Results: make([]BatchTuneResult, len(items))}
	for i := range items {
		if items[i].err != "" {
			resp.Results[i] = BatchTuneResult{Error: items[i].err}
			resp.Errors++
			continue
		}
		res := results[items[i].key]
		if res.err != nil {
			resp.Results[i] = BatchTuneResult{Error: fmt.Sprintf("tuning failed: %v", res.err)}
			resp.Errors++
			continue
		}
		work := insts[items[i].key]
		tr := tuneResponseFor(items[i].system, work.inst, res.plan, res.outcome)
		resp.Results[i] = BatchTuneResult{TuneResponse: &tr}
	}
	if resp.Errors > 0 {
		// Per-item failures do not fail the batch, but they are request
		// errors for the counters' purposes.
		s.m.errors["batch"].Inc()
	}
	s.cfg.Logger.Info("tune batch", "items", len(items), "unique_keys", len(insts), "errors", resp.Errors)
	s.writeJSON(w, http.StatusOK, resp)
}

// tuneKeyWork and tuneKeyResult carry one unique key through the batch
// fan-out.
type tuneKeyWork struct {
	system string
	inst   plan.Instance
}

type tuneKeyResult struct {
	plan    tunecache.Plan
	outcome tunecache.Outcome
	err     error
}

// BatchTune is the client half of POST /v1/tune/batch: it submits req to
// the daemon at baseURL (e.g. "http://localhost:8080") and decodes the
// per-item results. client == nil selects http.DefaultClient. A non-2xx
// reply (the batch itself was rejected: too many items, malformed JSON)
// is returned as an error; per-item failures live in the result slice.
func BatchTune(ctx context.Context, client *http.Client, baseURL string, req BatchTuneRequest) (*BatchTuneResponse, error) {
	if client == nil {
		client = http.DefaultClient
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("service: encoding batch request: %w", err)
	}
	url := strings.TrimSuffix(baseURL, "/") + "/v1/tune/batch"
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hresp, err := client.Do(hreq)
	if err != nil {
		return nil, fmt.Errorf("service: posting batch: %w", err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		var e errorResponse
		if json.NewDecoder(io.LimitReader(hresp.Body, 1<<16)).Decode(&e) == nil && e.Error != "" {
			return nil, fmt.Errorf("service: batch rejected (%s): %s", hresp.Status, e.Error)
		}
		return nil, fmt.Errorf("service: batch rejected: %s", hresp.Status)
	}
	var out BatchTuneResponse
	if err := json.NewDecoder(hresp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("service: decoding batch response: %w", err)
	}
	return &out, nil
}
