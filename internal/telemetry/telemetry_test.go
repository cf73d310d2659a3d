package telemetry

import (
	"math"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "a counter")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}

	g := r.Gauge("test_gauge", "a gauge")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
}

func TestCounterVecIdentityAndTotal(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("routes_total", "per route", "route")
	a := v.With("tune")
	b := v.With("tune")
	if a != b {
		t.Fatal("With must intern: same labels should return the same handle")
	}
	a.Add(3)
	v.With("batch").Add(2)
	if got := v.Total(); got != 5 {
		t.Fatalf("Total = %d, want 5", got)
	}
}

func TestVecLabelArityPanics(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("arity_total", "x", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong label arity")
		}
	}()
	v.With("only-one")
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_total", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate metric name")
		}
	}()
	r.Counter("dup_total", "x")
}

func TestInvalidMetricNamePanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on invalid metric name")
		}
	}()
	r.Counter("bad-name", "x")
}

func TestHistogramCountsAndSum(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("Count = %d, want 5", got)
	}
	if got, want := h.Sum(), 56.05; math.Abs(got-want) > 1e-9 {
		t.Fatalf("Sum = %v, want %v", got, want)
	}
	// Bucket occupancy: (≤0.1)=1, (0.1,1]=2, (1,10]=1, +Inf=1.
	wantCounts := []uint64{1, 2, 1, 1}
	for i, want := range wantCounts {
		if got := h.counts[i].Load(); got != want {
			t.Fatalf("bucket %d = %d, want %d", i, got, want)
		}
	}
}

func TestHistogramBoundaryValueIsInclusive(t *testing.T) {
	h := newHistogram([]float64{1, 2})
	h.Observe(1) // le="1" bucket is inclusive
	if got := h.counts[0].Load(); got != 1 {
		t.Fatalf("observation on the bound landed in bucket %v, want bucket 0", h.counts)
	}
}

func TestInvalidBucketsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on non-increasing buckets")
		}
	}()
	newHistogram([]float64{1, 1})
}

// TestRegistryConcurrentStress hammers every metric kind from many
// goroutines; run under -race this is the registry's thread-safety
// proof, and the final counts double as a lost-update check.
func TestRegistryConcurrentStress(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("stress_total", "x")
	g := r.Gauge("stress_gauge", "x")
	h := r.Histogram("stress_seconds", "x", nil)
	v := r.CounterVec("stress_routes_total", "x", "route")
	hv := r.HistogramVec("stress_lat_seconds", "x", nil, "route")
	routes := []string{"a", "b", "c", "d"}

	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(float64(i%1000) * 1e-6)
				route := routes[(w+i)%len(routes)]
				v.With(route).Inc()
				hv.With(route).Observe(1e-4)
			}
		}(w)
	}
	wg.Wait()

	const want = workers * perWorker
	if got := c.Value(); got != want {
		t.Fatalf("counter = %d, want %d (lost updates)", got, want)
	}
	if got := g.Value(); got != 0 {
		t.Fatalf("gauge = %d, want 0", got)
	}
	if got := h.Count(); got != want {
		t.Fatalf("histogram count = %d, want %d", got, want)
	}
	if got := v.Total(); got != want {
		t.Fatalf("vec total = %d, want %d", got, want)
	}
	var hvTotal uint64
	for _, route := range routes {
		hvTotal += hv.With(route).Count()
	}
	if hvTotal != want {
		t.Fatalf("histogram vec count = %d, want %d", hvTotal, want)
	}
}

// Counter registers and returns an unlabelled monotonic counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	f := &family{name: name, help: help, typ: TypeCounter}
	f.series = map[string]metric{"": c}
	r.register(f)
	return c
}

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }
