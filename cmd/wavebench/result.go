package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// e2eMetrics are the end-to-end metrics every workload reports from its
// untraced run; README.md tables what each means per workload.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"efficiency", "ratio"},
	{"rss_mb", "MB"},
}

// locPackages are the directories whose non-test Go lines the traced
// run counts (loc.nontest.<name>, internal packages by their own name);
// a package that disappears reads 0, and one that appears is counted
// in the total only.
var locPackages = []string{
	"apps", "core", "cpuexec", "des", "engine", "experiments", "grid", "hw",
	"jobs", "kernels", "ml", "plan", "report", "retrain", "service", "simcl",
	"stats", "telemetry", "tunecache", "wavefront", "cmd",
}

// layerMetrics are the per-layer metrics every traced run reports.
func layerMetrics() []metricDef {
	defs := []metricDef{
		{"net.loopback_rtt_us", "us"},
		{"service.handler_us", "us"},
		{"service.handler_allocs", "count"},
		{"service.batch_handler_us", "us"},
		{"service.batch_handler_allocs", "count"},
		{"service.decode_us", "us"},
		{"service.encode_us", "us"},
		{"service.unattributed_us", "us"},
		{"served.p50_us", "us"},
		{"served.unattributed_us", "us"},
		{"apps.resolve_us", "us"},
		{"tunecache.hit_us", "us"},
		{"tunecache.hit_allocs", "count"},
		{"tunecache.miss_us", "us"},
		{"tunecache.hit_ratio", "ratio"},
		{"tunecache.coalesced_ratio", "ratio"},
		{"tunecache.evictions_per_s", "1/s"},
		{"tunecache.invalidations", "count"},
		{"core.predict_ns", "ns"},
		{"core.search_s", "s"},
		{"core.fit_s", "s"},
		{"core.refine_ms", "ms"},
		{"core.refine_probes", "count"},
		{"core.obslog_append_us", "us"},
		{"engine.estimate_us", "us"},
		{"engine.serial_ns", "ns"},
		{"engine.estimates_per_search", "count"},
		{"engine.measure_us", "us"},
		{"jobs.queue_wait_p50_ms", "ms"},
		{"jobs.queue_wait_p99_ms", "ms"},
		{"jobs.exec_p50_ms", "ms"},
		{"jobs.pipeline_p50_ms", "ms"},
		{"jobs.rejected_ratio", "ratio"},
		{"retrain.cycles", "count"},
		{"retrain.promotions", "count"},
		{"retrain.train_s", "s"},
		{"cpuexec.goroutines_leaked", "count"},
		{"gen.lag_p99_us", "us"},
		{"trace.overhead_ratio", "ratio"},
	}
	for _, app := range appNames {
		defs = append(defs,
			metricDef{"kernels.cell_ns." + app, "ns"},
			metricDef{"cpuexec.parallel_ms." + app, "ms"},
			metricDef{"cpuexec.frontier_ms." + app, "ms"},
			metricDef{"cpuexec.overhead_ratio." + app, "ratio"},
			metricDef{"grid.steps." + app, "count"})
	}
	for _, p := range locPackages {
		defs = append(defs, metricDef{"loc.nontest." + p, "lines"})
	}
	return append(defs, metricDef{"loc.nontest.total", "lines"})
}

// metric is one reported value, as it appears in the result object.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// diagnostic is a measured figure that is printed and kept in result
// files for -compare, but is not a declared metric: on a shared host
// its run-to-run spread is wider than any bound worth gating on.
type diagnostic struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "higher" or "lower"
}

// result is one workload run: its metrics and diagnostics, and the
// accounting of what it attempted and what failed. Notes (a tail's
// percentile and sample count, what a figure measures) are printed for
// people only.
type result struct {
	Workload    string                `json:"workload"`
	Seed        int64                 `json:"seed"`
	Trace       bool                  `json:"trace"`
	Correct     bool                  `json:"correct"`
	Attempted   int                   `json:"attempted"`
	Failed      int                   `json:"failed"`
	Metrics     map[string]metric     `json:"metrics"`
	Diagnostics map[string]diagnostic `json:"diagnostics,omitempty"`

	notes    map[string]string
	problems []string
}

func newResult(workload string, seed int64, trace bool) *result {
	return &result{Workload: workload, Seed: seed, Trace: trace, Metrics: make(map[string]metric),
		Diagnostics: make(map[string]diagnostic), notes: make(map[string]string)}
}

// set records a metric; note, when given, is printed after the unit.
func (r *result) set(name string, v float64, unit string, note ...string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
	if len(note) > 0 {
		r.notes[name] = note[0]
	}
}

// diag records a diagnostic; better is "higher" or "lower".
func (r *result) diag(name string, v float64, unit, better, note string) {
	r.Diagnostics[name] = diagnostic{Value: v, Unit: unit, Better: better}
	r.notes[name] = "diagnostic; " + note
}

// problem records a failed correctness check.
func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// ops accounts for attempted operations and how many of them failed.
func (r *result) ops(attempted, failed int) {
	r.Attempted += attempted
	r.Failed += failed
}

// failures counts failed output checks as failed operations and records
// the first few as problems.
func (r *result) failures(errs []error) {
	r.ops(0, len(errs))
	for i, err := range errs {
		if i == 5 {
			r.problem("... and %d more failed checks", len(errs)-i)
			break
		}
		r.problem("%v", err)
	}
}

// finish checks that exactly the declared metrics were measured and
// settles Correct.
func (r *result) finish(want []metricDef) {
	declared := make(map[string]bool, len(want))
	for _, d := range want {
		declared[d.Name] = true
		switch m, ok := r.Metrics[d.Name]; {
		case !ok:
			r.problem("metric %s was not measured", d.Name)
		case m.Unit != d.Unit:
			r.problem("metric %s measured in %s, want %s", d.Name, m.Unit, d.Unit)
		}
	}
	for name := range r.Metrics {
		if !declared[name] {
			r.problem("metric %s is not declared", name)
		}
	}
	if r.Attempted < 1 {
		r.problem("no operation attempted")
	}
	r.Correct = len(r.problems) == 0 && r.Failed == 0
}

// printHuman writes one "workload metric value unit" line per metric in
// definition order, then the diagnostics and any failed checks.
func (r *result) printHuman(w io.Writer, defs []metricDef) {
	line := func(name string, v float64, unit string) {
		s := fmt.Sprintf("%s %s %s %s", r.Workload, name, strconv.FormatFloat(v, 'g', 6, 64), unit)
		if n := r.notes[name]; n != "" {
			s += " (" + n + ")"
		}
		fmt.Fprintln(w, s)
	}
	for _, d := range defs {
		if m, ok := r.Metrics[d.Name]; ok {
			line(d.Name, m.Value, m.Unit)
		}
	}
	for _, name := range sortedKeys(r.Diagnostics) {
		d := r.Diagnostics[name]
		line(name, d.Value, d.Unit)
	}
	fmt.Fprintf(w, "%s ops attempted=%d failed=%d correct=%t\n", r.Workload, r.Attempted, r.Failed, r.Correct)
	for _, p := range r.problems {
		fmt.Fprintf(w, "%s CHECK FAILED: %s\n", r.Workload, p)
	}
}

// summaryLine is the machine-readable last line of a run: exactly the
// keys correct, attempted, failed and metrics.
func (r *result) summaryLine() ([]byte, error) {
	return json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
}

// appendResultFile appends r as one JSON line to path, the format
// -compare reads.
func appendResultFile(path string, r *result) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
