package main

import (
	"context"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func seq(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i + 1)
	}
	return v
}

func TestTailIsHighestPercentileWithTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n     int
		q, v  float64
		noteN string
	}{
		{1000, 99, 990, "p99 of n=1000"},
		{500, 95, 475, "p95 of n=500"}, // p99 would leave 5 beyond
		{60, 75, 45, "p75 of n=60"},    // p90 would leave 6 beyond
		{15, 100, 15, "max of n=15"},   // even p50 leaves 7 beyond
	} {
		s := summarize(seq(tc.n))
		if s.TailQ != tc.q || s.Tail != tc.v {
			t.Errorf("n=%d: tail p%g = %g, want p%g = %g", tc.n, s.TailQ, s.Tail, tc.q, tc.v)
		}
		if got := s.tailNote(); got != tc.noteN {
			t.Errorf("n=%d: note %q, want %q", tc.n, got, tc.noteN)
		}
	}
	s := summarizeSliced(seq(10000))
	if s.Slices != 10 || s.TailQ != 99 || !strings.Contains(s.tailNote(), "n=10000") {
		t.Errorf("sliced: %+v, note %q; want ten p99 slices stating n", s, s.tailNote())
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles(seq(10)); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g, %g; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([4, 1, 3], n=4) == [1.0, 3.0, 4.0]
	if q1, q3 := quartiles([]float64{4, 1, 3}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles(4,1,3) = %g, %g; want 1, 4", q1, q3)
	}
}

// streamID renders a schedule as due times and request bodies.
func streamID(t *testing.T, seed int64, cold bool) string {
	t.Helper()
	hot, err := hotKeys()
	if err != nil {
		t.Fatal(err)
	}
	var src keySource = newUniformKeys(hot, seed, 11)
	if cold {
		src = newZipfKeys(coldKeys{}, seed, 11)
	}
	ops, err := schedule(seed, 11, 2000, 100*time.Millisecond, 0, tuneMix, src)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, o := range ops {
		b.WriteString(o.due.String())
		b.Write(o.body)
		b.WriteByte('\n')
	}
	return b.String()
}

func TestStreamsFollowSeed(t *testing.T) {
	for _, cold := range []bool{false, true} {
		a, again, other := streamID(t, 1, cold), streamID(t, 1, cold), streamID(t, 2, cold)
		if a != again {
			t.Errorf("cold=%t: the same seed drew different streams", cold)
		}
		if a == other {
			t.Errorf("cold=%t: seeds 1 and 2 drew the same stream", cold)
		}
	}
}

func TestOpenLoopCountsFromDueTime(t *testing.T) {
	// The first request holds the server for 50 ms, and every other
	// request queues behind it, as behind a stalled process.
	var mu sync.Mutex
	var once sync.Once
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		mu.Lock()
		once.Do(func() { time.Sleep(50 * time.Millisecond) })
		mu.Unlock()
	}))
	defer srv.Close()
	client := newClient()
	defer client.CloseIdleConnections()
	due := make([]time.Duration, 100) // one op per millisecond
	for i := range due {
		due[i] = time.Duration(i) * time.Millisecond
	}
	r := openLoop(context.Background(), client, due, func(ctx context.Context, c *conn, i int) error {
		_, err := c.post(ctx, srv.URL, []byte("{}"), http.StatusOK)
		return err
	})
	if r.failed() != 0 {
		t.Fatalf("%d ops failed", r.failed())
	}
	// An op due 10 ms into the stall waits for the rest of it.
	if got := r.Latency[10]; got < 30*time.Millisecond {
		t.Errorf("op due at 10 ms took %v, want at least 30 ms counted from its due time", got)
	}
	lag := summarize(r.lagMicros())
	if lag.Tail < 20_000 {
		t.Errorf("generator lag tail %.0f us, want the stall (>= 20 ms) to show", lag.Tail)
	}
	// Ops due after the stall has drained are not billed for it.
	if got := median(r.micros(func(i int) bool { return i >= 90 })); got > 20_000 || math.IsNaN(got) {
		t.Errorf("ops due long after the stall took %.0f us", got)
	}
}

func TestCompareVerdicts(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98}
	for _, tc := range []struct {
		name  string
		b     []float64
		sign  float64
		bound float64
		want  string
	}{
		{"within bound", []float64{103, 104, 102, 103, 105, 101}, -1, 0.1, "same"},
		{"worse than bound", []float64{120, 121, 119, 120, 122, 118}, -1, 0.1, "worse"},
		{"better in every pair", []float64{90, 91, 89, 90, 92, 88}, -1, 0.1, "better"},
		{"higher is better", []float64{120, 121, 119, 120, 122, 118}, 1, 0.1, "better"},
		{"too noisy to tell", []float64{60, 140, 70, 130, 100, 90}, -1, 0.1, "unresolved"},
		{"diagnostic, every run worse", []float64{110, 111, 109, 110, 112, 108}, -1, 0, "worse"},
		{"diagnostic, runs overlap", []float64{101, 102, 100, 101, 103, 99}, -1, 0, "unresolved"},
	} {
		if got, _, _ := verdict(base, tc.b, tc.sign, tc.bound); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}
