package main

// Output checks of the served workloads: every served plan's modeled
// runtime is recomputed through the public estimator, instance echoes
// are compared with the request, and batch results must line up with
// their items. Replies are logged during the windows and checked only
// afterwards, so checking costs no CPU while latency is measured.

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sync"

	"repro/wavefront"
)

// rtimeTolerance is the relative agreement required between a served
// rtime_sec and the estimator's runtime for the served parameters.
const rtimeTolerance = 1e-9

// modeledSec is the runtime the daemon must report for a plan: the
// serial baseline for a serial decision, else the estimate of par.
func modeledSec(k *tuneKey, serial bool, par wavefront.Params) (float64, error) {
	if serial {
		return wavefront.SerialSeconds(k.sys, k.inst), nil
	}
	res, err := wavefront.Estimate(k.sys, k.inst, par)
	if err != nil {
		return 0, err
	}
	return res.RTimeNs / 1e9, nil
}

// checkReply verifies one served plan against its request key.
func checkReply(k *tuneKey, r tuneResp) error {
	if r.Error != "" {
		return fmt.Errorf("%s: item error %q", k.body, r.Error)
	}
	rows, cols := k.inst.Shape()
	if r.System != k.req.System || r.Instance.Rows != rows || r.Instance.Cols != cols ||
		r.Instance.TSize != k.inst.TSize || r.Instance.DSize != k.inst.DSize {
		return fmt.Errorf("%s: echoed %s %dx%d tsize=%g dsize=%d, want %s %dx%d tsize=%g dsize=%d",
			k.body, r.System, r.Instance.Rows, r.Instance.Cols, r.Instance.TSize, r.Instance.DSize,
			k.req.System, rows, cols, k.inst.TSize, k.inst.DSize)
	}
	want, err := modeledSec(k, r.Serial, r.params())
	if err != nil {
		return fmt.Errorf("%s: estimating served params: %v", k.body, err)
	}
	if math.Abs(want-r.RTimeSec) > rtimeTolerance*math.Abs(want) || math.IsNaN(r.RTimeSec) {
		return fmt.Errorf("%s: rtime_sec %.12g, estimator gives %.12g for %v (serial=%t)",
			k.body, r.RTimeSec, want, r.params(), r.Serial)
	}
	return nil
}

// served is one decoded reply awaiting its check.
type served struct {
	k *tuneKey
	r tuneResp
}

// replyLog keeps every distinct reply body per key and every batch
// reply, for checking after the window.
type replyLog struct {
	mu      sync.Mutex
	tunes   map[*tuneKey]map[string]bool
	batches []batchReply
}

type batchReply struct {
	keys []*tuneKey
	body string
}

func newReplyLog() *replyLog { return &replyLog{tunes: make(map[*tuneKey]map[string]bool)} }

func (l *replyLog) addTune(k *tuneKey, body []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	seen := l.tunes[k]
	if seen == nil {
		seen = make(map[string]bool)
		l.tunes[k] = seen
	}
	seen[string(body)] = true
}

func (l *replyLog) addBatch(keys []*tuneKey, body []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.batches = append(l.batches, batchReply{keys: keys, body: string(body)})
}

// check decodes and verifies every logged reply on maxConns workers and
// returns the failures.
func (l *replyLog) check() []error {
	var failures []error
	var items []served
	seen := make(map[served]bool)
	add := func(k *tuneKey, r tuneResp) {
		if s := (served{k, r}); !seen[s] {
			seen[s] = true
			items = append(items, s)
		}
	}
	for k, bodies := range l.tunes {
		for body := range bodies {
			var r tuneResp
			if err := json.Unmarshal([]byte(body), &r); err != nil {
				failures = append(failures, fmt.Errorf("%s: undecodable reply: %v", k.body, err))
				continue
			}
			add(k, r)
		}
	}
	for _, b := range l.batches {
		var r batchResp
		if err := json.Unmarshal([]byte(b.body), &r); err != nil {
			failures = append(failures, fmt.Errorf("undecodable batch reply: %v", err))
			continue
		}
		if r.Count != len(b.keys) || len(r.Results) != len(b.keys) || r.Errors != 0 {
			failures = append(failures, fmt.Errorf("batch of %d items answered count=%d results=%d errors=%d",
				len(b.keys), r.Count, len(r.Results), r.Errors))
			continue
		}
		for i, item := range r.Results {
			add(b.keys[i], item)
		}
	}
	errs := make([]error, len(items))
	parallel(len(items), func(i int) { errs[i] = checkReply(items[i].k, items[i].r) })
	for _, err := range errs {
		if err != nil {
			failures = append(failures, err)
		}
	}
	return failures
}

// parallel runs fn(0..n-1) on maxConns goroutines and waits for them.
func parallel(n int, fn func(i int)) {
	var wg sync.WaitGroup
	for w := 0; w < maxConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < n; i += maxConns {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// bestSec is the exhaustive optimum of k over the quick space's
// configurations, by the same estimator the daemon serves.
func bestSec(k *tuneKey) (float64, error) {
	best := math.Inf(1)
	for _, par := range wavefront.QuickSpace().Configs(k.inst, k.sys) {
		res, err := wavefront.Estimate(k.sys, k.inst, par)
		if err != nil {
			return 0, err
		}
		best = math.Min(best, res.RTimeNs/1e9)
	}
	return best, nil
}

// planEfficiency is the paper's Figure 10/11 measure over a fixed key
// sample: it asks the daemon at base for each key's plan (logging the
// replies for the checks) and returns the mean of min(1, best/served)
// modeled runtime, where best is the key's exhaustive optimum.
func planEfficiency(ctx context.Context, c *conn, base string, keys []*tuneKey, replies *replyLog) (float64, error) {
	servedSec := make([]float64, len(keys))
	for i, k := range keys {
		b, err := c.post(ctx, base+"/v1/tune", k.body, 200)
		if err != nil {
			return 0, fmt.Errorf("plan efficiency: %w", err)
		}
		replies.addTune(k, b)
		var r tuneResp
		if err := json.Unmarshal(b, &r); err != nil {
			return 0, fmt.Errorf("plan efficiency: %w", err)
		}
		servedSec[i] = r.RTimeSec
	}
	effs := make([]float64, len(keys))
	errs := make([]error, len(keys))
	parallel(len(keys), func(i int) {
		best, err := bestSec(keys[i])
		effs[i], errs[i] = math.Min(1, best/servedSec[i]), err
	})
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return mean(effs), nil
}
