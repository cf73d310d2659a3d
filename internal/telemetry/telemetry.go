// Package telemetry is the daemon's dependency-free observability
// core: an atomic metrics registry (counters, gauges, fixed-bucket
// latency histograms), a Prometheus
// text-format exposition writer, and lightweight trace spans threaded
// through request contexts. Log lines go through the standard library's
// log/slog. Everything is safe for concurrent use and designed so the
// hot-path cost of an instrument is one or two atomic operations —
// cheap enough to leave on under production traffic.
//
// The registry renders the machine surface (GET /metrics) from its
// Counter/Gauge/Histogram handles; a handle's Value is the same number
// a human surface (/v1/stats) reports. Subsystems that already keep
// their own counters (the plan cache's per-shard stats, the job
// manager's queue accounting, the retrainer's attempt counts) plug in
// at scrape time via CollectFunc callbacks instead of double-counting.
package telemetry

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// MetricType names the exposition type of a metric family.
type MetricType string

// Exposition types understood by the Prometheus text format.
const (
	TypeCounter   MetricType = "counter"
	TypeGauge     MetricType = "gauge"
	TypeHistogram MetricType = "histogram"
)

var (
	metricNameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRE  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// DefBuckets is the default latency histogram layout in seconds. It
// spans 1µs (a sharded plan-cache hit is a few hundred ns) to 60s
// (a full exhaustive sweep job), roughly 2.5×/4× per step like the
// conventional Prometheus defaults but extended three decades lower.
var DefBuckets = []float64{
	1e-6, 2.5e-6, 5e-6,
	1e-5, 2.5e-5, 5e-5,
	1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3,
	1e-2, 2.5e-2, 5e-2,
	0.1, 0.25, 0.5,
	1, 2.5, 5, 10, 30, 60,
}

// A Registry holds named metric families and renders them in
// Prometheus text format. Families are registered once (typically at
// server construction) and the returned handles are then updated
// lock-free; registration of a duplicate or invalid name panics, as
// that is a programming error, not a runtime condition.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// family is one named metric with all its label permutations.
type family struct {
	name   string
	help   string
	typ    MetricType
	labels []string

	mu     sync.Mutex
	series map[string]metric // label-values key → handle

	// collect, when non-nil, makes this a callback family: samples are
	// produced at scrape time instead of being stored.
	collect func(emit Emit)

	buckets []float64 // histogram families only
}

// metric is any stored series handle.
type metric interface{}

// Emit reports one sample from a CollectFunc callback. The number of
// label values must match the family's label names.
type Emit func(value float64, labelValues ...string)

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// register validates and stores a new family, panicking on duplicates.
func (r *Registry) register(f *family) {
	if !metricNameRE.MatchString(f.name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", f.name))
	}
	for _, l := range f.labels {
		if !labelNameRE.MatchString(l) {
			panic(fmt.Sprintf("telemetry: invalid label name %q on %q", l, f.name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[f.name]; dup {
		panic(fmt.Sprintf("telemetry: duplicate metric %q", f.name))
	}
	if f.series == nil {
		f.series = make(map[string]metric)
	}
	r.families[f.name] = f
}

// CounterVec registers a counter family partitioned by labels.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	f := &family{name: name, help: help, typ: TypeCounter, labels: labels}
	r.register(f)
	return &CounterVec{fam: f}
}

// Gauge registers and returns an unlabelled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	f := &family{name: name, help: help, typ: TypeGauge}
	f.series = map[string]metric{"": g}
	r.register(f)
	return g
}

// Histogram registers a fixed-bucket histogram. A nil buckets slice
// selects DefBuckets; bounds must be strictly increasing.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	h := newHistogram(buckets)
	f := &family{name: name, help: help, typ: TypeHistogram, buckets: h.bounds}
	f.series = map[string]metric{"": h}
	r.register(f)
	return h
}

// HistogramVec registers a histogram family partitioned by labels.
// All series share one bucket layout (nil selects DefBuckets).
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if buckets == nil {
		buckets = DefBuckets
	}
	validateBuckets(buckets)
	f := &family{name: name, help: help, typ: TypeHistogram, labels: labels, buckets: buckets}
	r.register(f)
	return &HistogramVec{fam: f}
}

// CollectFunc registers a callback family: fn runs at every scrape and
// emits current values, letting subsystems with their own internal
// counters (cache shards, job queues) surface without double-counting.
// Only TypeCounter and TypeGauge callbacks are supported.
func (r *Registry) CollectFunc(name, help string, typ MetricType, labels []string, fn func(emit Emit)) {
	if typ != TypeCounter && typ != TypeGauge {
		panic(fmt.Sprintf("telemetry: CollectFunc %q: unsupported type %q", name, typ))
	}
	r.register(&family{name: name, help: help, typ: typ, labels: labels, collect: fn})
}

// A Counter is a monotonically increasing value. The zero value is
// ready to use, but only counters obtained from a Registry are scraped.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// A Gauge is a value that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Add moves the value by delta (negative to decrease).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// A Histogram counts observations into fixed cumulative-on-scrape
// buckets. Observe is two atomic adds plus a CAS loop for the sum; no
// locks are taken, so it is safe on the hottest paths.
type Histogram struct {
	bounds []float64       // strictly increasing upper bounds
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	sum    atomicFloat
}

func validateBuckets(bounds []float64) {
	if len(bounds) == 0 {
		panic("telemetry: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram bounds not strictly increasing at %d", i))
		}
	}
}

func newHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	validateBuckets(bounds)
	return &Histogram{
		bounds: bounds,
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Binary search for the first bound >= v; the +Inf bucket is the
	// fallthrough when v exceeds every bound.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.sum.Add(v)
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var total uint64
	for i := range h.counts {
		total += h.counts[i].Load()
	}
	return total
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.Load() }

// atomicFloat is a float64 updated by CAS on its bit pattern.
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat) Load() float64 {
	return math.Float64frombits(f.bits.Load())
}

// labelKey joins label values with an unprintable separator so the
// tuple can key a map without ambiguity.
func labelKey(values []string) string {
	return strings.Join(values, "\x1f")
}

func splitLabelKey(key string) []string {
	if key == "" {
		return nil
	}
	return strings.Split(key, "\x1f")
}

// with finds or creates the series for the given label values.
func (f *family) with(values []string, mk func() metric) metric {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("telemetry: %q expects %d label values, got %d",
			f.name, len(f.labels), len(values)))
	}
	key := labelKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	m, ok := f.series[key]
	if !ok {
		m = mk()
		f.series[key] = m
	}
	return m
}

// A CounterVec is a counter family partitioned by label values. With
// interns series, so hot paths should resolve their handle once and
// keep it rather than calling With per operation.
type CounterVec struct {
	fam *family
}

// With returns the counter for the given label values, creating it on
// first use. The same values always return the same handle.
func (v *CounterVec) With(labelValues ...string) *Counter {
	return v.fam.with(labelValues, func() metric { return &Counter{} }).(*Counter)
}

// Total sums the counter across all label permutations.
func (v *CounterVec) Total() uint64 {
	v.fam.mu.Lock()
	defer v.fam.mu.Unlock()
	var total uint64
	for _, m := range v.fam.series {
		total += m.(*Counter).Value()
	}
	return total
}

// A HistogramVec is a histogram family partitioned by label values.
type HistogramVec struct {
	fam *family
}

// With returns the histogram for the given label values, creating it
// on first use.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	return v.fam.with(labelValues, func() metric { return newHistogram(v.fam.buckets) }).(*Histogram)
}
