// Command benchtraj records the repository's performance trajectory:
// it runs the key serving and substrate benchmarks, writes the medians
// to BENCH_<date>.json at the repository root, and gates the result
// against the most recent previous snapshot. A benchmark whose ns/op
// grew by more than -tol (default 5%) fails the run — the budget the
// frontier refactor promised the dense path — unless -warn-only
// downgrades regressions to warnings (what CI uses, since shared
// runners are noisy).
//
// Usage:
//
//	benchtraj [-bench regex] [-count 5] [-benchtime 20x] [-dir .]
//	          [-tol 0.05] [-warn-only] [-dry-run]
//
// Without -bench the trajectory runs in two groups, each with a
// benchtime sized to its benchmarks: the substrate group (millisecond-
// scale frontier sweeps) uses a fixed 20 iterations, while the serving
// group (microsecond-scale cache hits, request handling, job and
// pipeline throughput) gets a 0.3s time budget per run — a fixed
// handful of microsecond iterations measures only a few hundred
// microseconds of work, which scheduler and hypervisor stalls swamp.
// Passing -bench runs that regex as a single group under -benchtime.
//
// The snapshot records one ns/op number per benchmark (the median
// across -count runs) plus the host fingerprint and the run settings,
// so consecutive files in the repository form a reviewable perf
// history. The gate only applies like-for-like: when the bench set,
// count or benchtime differ from the previous snapshot the numbers are
// not comparable (different operating points), so the run re-baselines
// instead of gating. Comparisons across different machines are
// likewise advisory only; the gate is meant for before/after runs on
// one host.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// A benchGroup is one go test -bench invocation with a benchtime
// sized to its benchmarks' per-op scale.
type benchGroup struct {
	bench     string
	benchtime string
}

// defaultGroups selects the trajectory set: the frontier substrate
// including its dense-parity pairs (ms-scale ops, so a fixed 20
// iterations is already ~1s of measurement), and the serving hot paths
// — plan-cache hits, batch tuning, the predict microbenchmark, job and
// pipeline throughput, the
// metrics-overhead probe pricing the telemetry layer — whose µs-scale
// ops need a time budget to average out scheduler stalls.
var defaultGroups = []benchGroup{
	{bench: "Frontier", benchtime: "20x"},
	{bench: "PlanCacheHit|TuneDuringPromotion|TuneBatch|JobThroughput|PipelineThroughput|MetricsOverhead|PredictBackend",
		benchtime: "0.3s"},
}

// Snapshot is the schema of one BENCH_<date>.json file.
type Snapshot struct {
	Date       string `json:"date"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Bench      string `json:"bench"`
	Count      int    `json:"count"`
	Benchtime  string `json:"benchtime"`
	// Results maps benchmark name (GOMAXPROCS suffix stripped) to the
	// median ns/op across the runs.
	Results map[string]float64 `json:"results_ns_per_op"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchtraj: ")
	bench := flag.String("bench", "", "benchmark regex run as a single group (default: the built-in groups)")
	count := flag.Int("count", 5, "runs per benchmark; the median is recorded")
	benchtime := flag.String("benchtime", "", "go test -benchtime per run (overrides the per-group defaults)")
	dir := flag.String("dir", ".", "directory holding BENCH_<date>.json snapshots (the repo root)")
	tol := flag.Float64("tol", 0.05, "allowed fractional ns/op growth vs the previous snapshot")
	warnOnly := flag.Bool("warn-only", false, "report regressions but exit 0 (noisy shared runners)")
	dryRun := flag.Bool("dry-run", false, "run and compare but do not write the snapshot file")
	flag.Parse()

	groups := defaultGroups
	if *bench != "" {
		bt := *benchtime
		if bt == "" {
			bt = "20x"
		}
		groups = []benchGroup{{bench: *bench, benchtime: bt}}
	} else if *benchtime != "" {
		groups = make([]benchGroup, len(defaultGroups))
		for i, g := range defaultGroups {
			groups[i] = benchGroup{bench: g.bench, benchtime: *benchtime}
		}
	}

	results := map[string]float64{}
	benches := make([]string, 0, len(groups))
	benchtimes := make([]string, 0, len(groups))
	for _, g := range groups {
		out, err := runBench(*dir, g.bench, *count, g.benchtime)
		if err != nil {
			log.Fatal(err)
		}
		got, err := parseBench(out)
		if err != nil {
			log.Fatal(err)
		}
		if len(got) == 0 {
			log.Fatalf("no benchmarks matched %q", g.bench)
		}
		for n, v := range got {
			results[n] = v
		}
		benches = append(benches, g.bench)
		benchtimes = append(benchtimes, g.benchtime)
	}

	snap := Snapshot{
		Date:       time.Now().UTC().Format("2006-01-02"),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Bench:      strings.Join(benches, ";"),
		Count:      *count,
		Benchtime:  strings.Join(benchtimes, ";"),
		Results:    results,
	}
	outFile := filepath.Join(*dir, "BENCH_"+snap.Date+".json")

	prevFile, prev, err := latestSnapshot(*dir)
	if err != nil {
		log.Fatal(err)
	}
	// The gate only compares like-for-like: a snapshot taken with a
	// different bench set, count or benchtime measured a different
	// operating point (burst vs sustained load), so its numbers say
	// nothing about a regression.
	rebaseline := ""
	if prev != nil && (prev.Bench != snap.Bench || prev.Count != snap.Count || prev.Benchtime != snap.Benchtime) {
		rebaseline = fmt.Sprintf("settings changed vs %s (bench %q count %d benchtime %q -> bench %q count %d benchtime %q)",
			filepath.Base(prevFile), prev.Bench, prev.Count, prev.Benchtime, snap.Bench, snap.Count, snap.Benchtime)
		prev = nil
	}

	names := make([]string, 0, len(results))
	for n := range results {
		names = append(names, n)
	}
	sort.Strings(names)
	regressions := 0
	for _, n := range names {
		cur := results[n]
		switch {
		case prev == nil:
			fmt.Printf("  %-60s %12.0f ns/op  (baseline)\n", n, cur)
		default:
			old, ok := prev.Results[n]
			if !ok || old <= 0 {
				fmt.Printf("  %-60s %12.0f ns/op  (new)\n", n, cur)
				continue
			}
			delta := cur/old - 1
			mark := "ok"
			if delta > *tol {
				mark = "REGRESSION"
				regressions++
			}
			fmt.Printf("  %-60s %12.0f ns/op  %+6.1f%%  %s\n", n, cur, 100*delta, mark)
		}
	}

	// A failing gate must not replace the baseline it failed against:
	// write the snapshot only when this run is a valid new trajectory
	// point (clean, warn-only, or a [re-]baseline).
	write := func() {
		if *dryRun {
			return
		}
		if err := writeSnapshot(outFile, snap); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", outFile)
	}
	switch {
	case rebaseline != "":
		write()
		fmt.Printf("%s; trajectory baseline re-established (gate not applied)\n", rebaseline)
	case prev == nil:
		write()
		fmt.Println("no previous snapshot; trajectory baseline established (gate not applied)")
	case regressions == 0:
		write()
		fmt.Printf("trajectory vs %s: within %.0f%% tolerance\n", filepath.Base(prevFile), 100**tol)
	case *warnOnly:
		write()
		fmt.Printf("WARNING: %d benchmark(s) regressed >%.0f%% vs %s (warn-only)\n",
			regressions, 100**tol, filepath.Base(prevFile))
	default:
		log.Fatalf("%d benchmark(s) regressed >%.0f%% vs %s (snapshot not written)",
			regressions, 100**tol, filepath.Base(prevFile))
	}
}

// runBench invokes the repository's benchmarks and returns the raw
// `go test` output.
func runBench(dir, bench string, count int, benchtime string) (string, error) {
	cmd := exec.Command("go", "test", "-run", "^$",
		"-bench", bench, "-count", strconv.Itoa(count), "-benchtime", benchtime, ".")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("go test -bench: %v\n%s", err, out)
	}
	return string(out), nil
}

// benchLine matches one result line of go test -bench output, e.g.
//
//	BenchmarkFrontierDense/serial/diag-8   10   48284734 ns/op   12 items/s
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+(?:e[+-]?[0-9]+)?) ns/op`)

// parseBench extracts per-benchmark ns/op medians from raw output. The
// -N GOMAXPROCS suffix is stripped so snapshots from hosts with
// different core counts key identically.
func parseBench(out string) (map[string]float64, error) {
	samples := map[string][]float64{}
	for _, line := range strings.Split(out, "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		v, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, fmt.Errorf("parsing %q: %v", line, err)
		}
		samples[m[1]] = append(samples[m[1]], v)
	}
	results := make(map[string]float64, len(samples))
	for name, vs := range samples {
		sort.Float64s(vs)
		results[name] = vs[len(vs)/2]
	}
	return results, nil
}

// latestSnapshot finds the newest BENCH_<date>.json in dir. Date order
// is lexical order by construction of the names. Comparison runs
// before the new snapshot is written, so a same-day rerun gates
// against the committed file and then overwrites it.
func latestSnapshot(dir string) (string, *Snapshot, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return "", nil, err
	}
	sort.Strings(matches)
	for i := len(matches) - 1; i >= 0; i-- {
		data, err := os.ReadFile(matches[i])
		if err != nil {
			return "", nil, err
		}
		var s Snapshot
		if err := json.Unmarshal(data, &s); err != nil {
			return "", nil, fmt.Errorf("%s: %v", matches[i], err)
		}
		return matches[i], &s, nil
	}
	return "", nil, nil
}

func writeSnapshot(path string, s Snapshot) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
