package main

// The load generator: an open loop that sends each op at its scheduled
// time, and a closed loop whose clients send the next op only after the
// previous one returned. Both run over at most maxConns keep-alive
// connections, so all load comes from this one process.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// maxConns bounds the connections (and so the in-flight requests) of
// every client this benchmark opens, and the workers of every loop.
const maxConns = 2

func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     maxConns,
			MaxIdleConnsPerHost: maxConns,
			DisableCompression:  true,
			IdleConnTimeout:     time.Minute,
		},
		Timeout: 30 * time.Second,
	}
}

// conn is one load-generating worker's request state: its buffer is
// reused across requests, so reading a reply allocates nothing once
// grown.
type conn struct {
	client *http.Client
	buf    bytes.Buffer
}

// do sends one request and returns the status and the reply body, which
// stays valid until the next call on c.
func (c *conn) do(ctx context.Context, method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

// post sends a JSON body and fails on any status other than want.
func (c *conn) post(ctx context.Context, url string, body []byte, want int) ([]byte, error) {
	code, b, err := c.do(ctx, http.MethodPost, url, body)
	if err != nil {
		return nil, err
	}
	if code != want {
		return nil, fmt.Errorf("POST %s: status %d: %.200s", url, code, b)
	}
	return b, nil
}

// get fetches url and fails on any status other than 200.
func (c *conn) get(ctx context.Context, url string) ([]byte, error) {
	code, b, err := c.do(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %.200s", url, code, b)
	}
	return b, nil
}

// sendFunc sends op i on a worker's connection and reports whether the
// op failed.
type sendFunc func(ctx context.Context, c *conn, i int) error

// loopResult is what a load loop measured.
type loopResult struct {
	// Latency, Lag, Done and OK hold one entry per op, in schedule order
	// (open loop) or completion order (closed loop); failed ops keep
	// theirs. Done is the op's completion time since the loop started.
	Latency []time.Duration
	Lag     []time.Duration
	Done    []time.Duration
	OK      []bool
	// Elapsed is the wall time from the start to the last completion.
	Elapsed time.Duration
}

func (r loopResult) failed() int {
	n := 0
	for _, ok := range r.OK {
		if !ok {
			n++
		}
	}
	return n
}

// micros converts the latencies of the successful ops that keep selects
// (all when keep is nil) to microseconds.
func (r loopResult) micros(keep func(i int) bool) []float64 {
	out := make([]float64, 0, len(r.Latency))
	for i, d := range r.Latency {
		if r.OK[i] && (keep == nil || keep(i)) {
			out = append(out, us(d))
		}
	}
	return out
}

// lagMicros returns every op's generator lag in microseconds.
func (r loopResult) lagMicros() []float64 {
	out := make([]float64, len(r.Lag))
	for i, d := range r.Lag {
		out[i] = us(d)
	}
	return out
}

// throughputSlices is how many equal slices throughput splits a loop
// into.
const throughputSlices = 10

// throughput is the completed (successful) ops per second: the median
// over equal slices of the loop, so a slice in which the host was
// stalled by other tenants moves it no more than any other slice.
func (r loopResult) throughput() float64 {
	slice := r.Elapsed / throughputSlices
	counts := make([]float64, throughputSlices)
	for i, d := range r.Done {
		if r.OK[i] {
			counts[min(int(d/slice), throughputSlices-1)]++
		}
	}
	return median(counts) / slice.Seconds()
}

// openLoop sends op i at start+due[i] over maxConns workers that take
// ops in schedule order. An op that finds every worker busy waits, and
// its latency counts from its due time, so a stall shows in every op
// scheduled behind it. An op sent by an idle worker counts from the
// moment it was actually sent, so the generator's own timer slack is not
// billed to the server; Lag (send time minus due time) reports that
// slack and the waits together.
func openLoop(ctx context.Context, client *http.Client, due []time.Duration, send sendFunc) loopResult {
	n := len(due)
	res := loopResult{Latency: make([]time.Duration, n), Lag: make([]time.Duration, n),
		Done: make([]time.Duration, n), OK: make([]bool, n)}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < maxConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &conn{client: client}
			for {
				i := int(next.Add(1) - 1)
				if i >= n || ctx.Err() != nil {
					return
				}
				at := start.Add(due[i])
				idle := false
				if d := time.Until(at); d > 0 {
					idle = true
					time.Sleep(d)
				}
				sent := time.Now()
				err := send(ctx, c, i)
				done := time.Now()
				from := at
				if idle {
					from = sent
				}
				res.Latency[i] = done.Sub(from)
				res.Lag[i] = sent.Sub(at)
				res.Done[i] = done.Sub(start)
				res.OK[i] = err == nil
			}
		}()
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	return res
}

// closedLoop runs maxConns clients, each sending its next op as soon as
// the previous one returned, until window has elapsed. Op indices are
// handed out in order, wrapping around if the clients outrun the list.
func closedLoop(ctx context.Context, client *http.Client, nOps int, window time.Duration, send sendFunc) loopResult {
	var mu sync.Mutex
	var res loopResult
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(window)
	for w := 0; w < maxConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &conn{client: client}
			var lat, done []time.Duration
			var ok []bool
			for time.Now().Before(deadline) && ctx.Err() == nil {
				i := int(next.Add(1)-1) % nOps
				t0 := time.Now()
				err := send(ctx, c, i)
				t1 := time.Now()
				lat = append(lat, t1.Sub(t0))
				done = append(done, t1.Sub(start))
				ok = append(ok, err == nil)
			}
			mu.Lock()
			res.Latency = append(res.Latency, lat...)
			res.Done = append(res.Done, done...)
			res.OK = append(res.OK, ok...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	res.Lag = make([]time.Duration, len(res.Latency))
	return res
}
