package main

// -compare: judge a change's runs (directory B) against the parent's
// (directory A), per workload and end-to-end metric, with the bounds
// BENCHMARK.json fixes.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
)

// minCompareRuns is the fewest runs per workload each side must hold.
const minCompareRuns = 3

// e2eBound is one end-to-end metric's entry in BENCHMARK.json.
type e2eBound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBounds(path string) ([]e2eBound, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bench struct {
		EndToEnd []e2eBound `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return bench.EndToEnd, nil
}

// readRuns reads every untraced result line of the files in dir, in
// file-name order, grouped by workload.
func readRuns(dir string) (map[string][]*result, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	runs := make(map[string][]*result)
	for _, ent := range entries {
		if !ent.Type().IsRegular() {
			continue
		}
		f, err := os.Open(filepath.Join(dir, ent.Name()))
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			var r result
			if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
				f.Close()
				return nil, fmt.Errorf("%s: %w", ent.Name(), err)
			}
			if !r.Trace {
				runs[r.Workload] = append(runs[r.Workload], &r)
			}
		}
		f.Close()
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("%s: %w", ent.Name(), err)
		}
	}
	return runs, nil
}

// verdict judges b against a for a metric where sign = +1 means higher
// is better and -1 lower. A change is worse when its median is worse
// than the parent's by more than bound; where the run-to-run spread
// (the wider interquartile range of the two sides, relative to the
// parent's median) exceeds the bound, the comparison is unresolved
// unless every run of one side beats every run of the other. A gain
// needs the medians to differ by more than the parent's own spread and
// the change to win nine tenths of the pairs.
func verdict(a, b []float64, sign, bound float64) (v string, wins, pairs int) {
	ma, mb := median(a), median(b)
	q1a, q3a := quartiles(a)
	q1b, q3b := quartiles(b)
	scale := math.Abs(ma)
	gain := sign * (mb - ma) / scale
	spread := math.Max(q3a-q1a, q3b-q1b) / scale
	for i := 0; i < min(len(a), len(b)); i++ {
		pairs++
		if sign*(b[i]-a[i]) > 0 {
			wins++
		}
	}
	switch {
	case gain < -bound && (spread <= bound || beats(a, b, sign)):
		return "worse", wins, pairs
	case spread > bound && beats(b, a, sign):
		return "better", wins, pairs
	case spread > bound:
		return "unresolved", wins, pairs
	case gain > (q3a-q1a)/scale && wins*10 >= 9*pairs:
		return "better", wins, pairs
	}
	return "same", wins, pairs
}

// beats reports whether every value of x is better than every value of
// y.
func beats(x, y []float64, sign float64) bool {
	if sign > 0 {
		return slices.Min(x) > slices.Max(y)
	}
	return slices.Max(x) < slices.Min(y)
}

// runCompare prints, for every workload and end-to-end metric, and then
// every diagnostic, both sides' medians and quartiles, the pairs the
// change won and the verdict; it exits 1 when any metric's verdict is
// "worse".
func runCompare(args []string, benchPath string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: wavebench -compare dirA dirB")
		return 2
	}
	bounds, err := readBounds(benchPath)
	if err != nil {
		fmt.Fprintf(stderr, "wavebench: %v\n", err)
		return 2
	}
	var sides [2]map[string][]*result
	for i, dir := range args {
		if sides[i], err = readRuns(dir); err != nil {
			fmt.Fprintf(stderr, "wavebench: %v\n", err)
			return 2
		}
	}
	var workloads []string
	for w := range sides[0] {
		workloads = append(workloads, w)
	}
	sort.Strings(workloads)
	fmt.Fprintf(stdout, "%-14s %-22s %12s %25s %12s %25s %8s %7s  %s\n",
		"workload", "metric", "A median", "A [q1, q3]", "B median", "B [q1, q3]", "change", "B wins", "verdict")
	code := 0
	for _, w := range workloads {
		a, b := sides[0][w], sides[1][w]
		if len(a) < minCompareRuns || len(b) < minCompareRuns {
			fmt.Fprintf(stderr, "wavebench: %s: %d and %d runs, want at least %d on each side\n", w, len(a), len(b), minCompareRuns)
			return 2
		}
		row := func(name, better string, bound float64, tag string) bool {
			va, vb := values(a, name), values(b, name)
			if len(va) != len(a) || len(vb) != len(b) {
				return false
			}
			sign := -1.0
			if better == "higher" {
				sign = 1
			}
			v, wins, pairs := verdict(va, vb, sign, bound)
			if v == "worse" && tag == "" {
				code = 1
			}
			q1a, q3a := quartiles(va)
			q1b, q3b := quartiles(vb)
			ma, mb := median(va), median(vb)
			fmt.Fprintf(stdout, "%-14s %-22s %12.5g %25s %12.5g %25s %+7.2f%% %3d/%-3d  %s%s\n", w, name,
				ma, fmt.Sprintf("[%.5g, %.5g]", q1a, q3a), mb, fmt.Sprintf("[%.5g, %.5g]", q1b, q3b),
				100*(mb-ma)/math.Abs(ma), wins, pairs, v, tag)
			return true
		}
		for _, bd := range bounds {
			if !row(bd.Name, bd.Better, bd.Bound, "") {
				fmt.Fprintf(stderr, "wavebench: %s: metric %s missing from some runs\n", w, bd.Name)
				return 2
			}
		}
		// Diagnostics have no bound: a verdict other than "same" needs
		// every run of one side to beat every run of the other.
		for _, name := range sortedKeys(a[0].Diagnostics) {
			row(name, a[0].Diagnostics[name].Better, 0, " (diagnostic)")
		}
	}
	return code
}

// values collects one metric or diagnostic across runs.
func values(runs []*result, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		} else if d, ok := r.Diagnostics[name]; ok {
			out = append(out, d.Value)
		}
	}
	return out
}
