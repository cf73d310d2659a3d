// Command wavebench is the repository's benchmark. One command measures
// the tuning daemon (the shipped cmd/waved binary, driven over loopback
// HTTP) and host wavefront execution (the public wavefront runners) end
// to end, and, in a separate traced run, every layer below them.
//
// Usage, from the repository root:
//
//	bash cmd/wavebench/run.sh [-workload a,b] [-seed N] [-seconds S] [-json out.json] [-trace 0|1|spans.jsonl]
//	bash cmd/wavebench/run.sh -compare dirA dirB
//
// The workloads are tune-hot, tune-cold, jobs-feedback and host-sweep
// (default: all four; README.md says what each stresses and why). A run
// prints one "workload metric value unit" line per metric and then, as
// its last line, a JSON object with the keys correct, attempted, failed
// and metrics; it exits 1 when a correctness check failed and 2 when the
// run could not be carried out. -trace 0, the default, reports the
// end-to-end metrics. -trace 1, or a file name, instead runs the traced
// per-layer suite, prints each layer's self time and writes every span
// as a JSON line to that file (.bench_build/spans.jsonl for 1). -json
// appends each workload's result to a file; -compare reads two
// directories of such files and judges the second against the first
// with the bounds in BENCHMARK.json.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	"repro/wavefront"
)

// procs is the GOMAXPROCS of this process and of every daemon, and the
// worker count of every host run: the two vCPUs of the host the rates
// were calibrated on.
const procs = 2

// env is what every workload run needs.
type env struct {
	root    string        // repository root (cmd/waved lives below it)
	workdir string        // scratch directory for logs and temp dirs
	waved   string        // built daemon binary
	seed    int64         // drives every key and arrival stream
	window  time.Duration // measured time of one run
	// setupReps is how many times set-up is timed; setup_s is the median.
	setupReps int
	// tunersDir, when set, makes daemons load tuner files from it
	// instead of training them (the smoke test's shortcut).
	tunersDir string
	// space is the search space the traced run trains on.
	space wavefront.Space
	// rateScale scales every frozen rate and hostScale every host-sweep
	// grid side; both are 1 outside tests.
	rateScale, hostScale float64
	// layerOps is how many calls the traced run times per serving layer,
	// and effKeys how many fixed keys plan efficiency averages over.
	layerOps, effKeys int
}

func defaultEnv(root, workdir string, seed int64, window time.Duration) *env {
	return &env{root: root, workdir: workdir, seed: seed, window: window, setupReps: 5,
		space: wavefront.QuickSpace(), rateScale: 1, hostScale: 1, layerOps: 2000, effKeys: 64}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wavebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workloads := fs.String("workload", strings.Join(allWorkloads, ","), "comma-separated workloads to run")
	seed := fs.Int64("seed", 1, "seed of every key and arrival stream")
	seconds := fs.Float64("seconds", 10, "measured seconds per workload run")
	trace := fs.String("trace", "0", "0: end-to-end run; 1 or a file name: traced per-layer run writing spans there")
	jsonPath := fs.String("json", "", "append each workload's result as a JSON line to this file")
	root := fs.String("root", ".", "repository root")
	compare := fs.Bool("compare", false, "compare two directories of -json result files: -compare dirA dirB")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return runCompare(fs.Args(), filepath.Join(*root, "BENCHMARK.json"), stdout, stderr)
	}
	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "wavebench: "+format+"\n", args...)
		return 2
	}
	names := strings.Split(*workloads, ",")
	for _, w := range names {
		if !slices.Contains(allWorkloads, w) {
			return fail("unknown workload %q (want %s)", w, strings.Join(allWorkloads, ", "))
		}
	}
	if *seconds <= 0 {
		return fail("-seconds must be positive")
	}
	if _, err := os.Stat(filepath.Join(*root, "cmd", "waved")); err != nil {
		return fail("%s is not the repository root (no cmd/waved); run from the root or pass -root", *root)
	}
	runtime.GOMAXPROCS(procs)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	buildDir := filepath.Join(*root, ".bench_build")
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return fail("%v", err)
	}
	workdir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return fail("%v", err)
	}
	defer os.RemoveAll(workdir)
	e := defaultEnv(*root, workdir, *seed, time.Duration(*seconds*float64(time.Second)))
	traced := *trace != "0"
	spanPath := *trace
	if *trace == "1" {
		spanPath = filepath.Join(buildDir, "spans.jsonl")
	}
	if !traced && slices.ContainsFunc(names, func(w string) bool { return w != wlHost }) {
		if e.waved, err = buildWaved(*root, buildDir); err != nil {
			return fail("%v", err)
		}
	}

	code := 0
	for _, w := range names {
		res := newResult(w, *seed, traced)
		defs := e2eMetrics
		if traced {
			defs = layerMetrics()
			rec := newRecorder()
			err = runLayers(ctx, e, res, rec)
			if err == nil {
				rec.printSelfTimes(stdout)
				path := spanPath
				if len(names) > 1 {
					path = strings.TrimSuffix(path, ".jsonl") + "-" + w + ".jsonl"
				}
				err = rec.writeFile(path)
			}
		} else {
			err = runWorkload(ctx, e, res)
		}
		if err != nil {
			return fail("%s: %v", w, err)
		}
		res.finish(defs)
		res.printHuman(stdout, defs)
		line, err := res.summaryLine()
		if err != nil {
			return fail("%v", err)
		}
		fmt.Fprintln(stdout, string(line))
		if *jsonPath != "" {
			if err := appendResultFile(*jsonPath, res); err != nil {
				return fail("%v", err)
			}
		}
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// runWorkload runs one workload's end-to-end measurement.
func runWorkload(ctx context.Context, e *env, res *result) error {
	res.diag("host_ref_ms", hostRefMs(), "ms", "lower", "fixed dynamic program outside the repository's code, median of 5")
	switch res.Workload {
	case wlTuneHot:
		return runTune(ctx, e, false, res)
	case wlTuneCold:
		return runTune(ctx, e, true, res)
	case wlJobs:
		return runJobs(ctx, e, res)
	default:
		return runHost(ctx, e, res)
	}
}

// hostRefMs times a fixed longest-common-subsequence dynamic program
// that calls no repository code and returns the median of five runs in
// milliseconds. The host's own speed drifts by tens of percent over
// minutes with other tenants' load, and every time metric drifts with
// it; when two sets of runs differ in set-up time, a matching shift in
// this figure says the host moved, not the code.
func hostRefMs() float64 {
	const n = 2048
	a, b := make([]byte, n), make([]byte, n)
	m := newMix(0, 3)
	for i := range a {
		a[i], b[i] = byte(m.intn(4)), byte(m.intn(4))
	}
	prev, cur := make([]int32, n+1), make([]int32, n+1)
	times := make([]float64, 5)
	for rep := range times {
		start := time.Now()
		clear(prev)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				switch {
				case a[i] == b[j]:
					cur[j+1] = prev[j] + 1
				case prev[j+1] >= cur[j]:
					cur[j+1] = prev[j+1]
				default:
					cur[j+1] = cur[j]
				}
			}
			prev, cur = cur, prev
		}
		times[rep] = ms(time.Since(start))
	}
	return median(times)
}
