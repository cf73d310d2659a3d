package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/wavefront"
)

// repoRoot is the repository this package benchmarks.
const repoRoot = "../.."

// testDir holds what the tests build and train once; it is removed when
// they end.
var testDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "wavebench-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	testDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// smallSpace trains usable tuners in a fraction of a second.
var smallSpace = wavefront.Space{
	Dims:      []int{500, 1900},
	TSizes:    []float64{10, 1000, 12000},
	DSizes:    []int{1, 5},
	CPUTiles:  []int{1, 8},
	BandFracs: []float64{-1, 0.5, 1.0},
	HaloFracs: []float64{-1, 0},
	GPUTiles:  []int{1, 8},
}

var (
	fixtureOnce sync.Once
	fixtureErr  error
	wavedBin    string
)

// fixture builds cmd/waved and writes small-space tuner files for every
// system into testDir, once.
func fixture(t *testing.T) (waved, tuners string) {
	t.Helper()
	tuners = filepath.Join(testDir, "tuners")
	fixtureOnce.Do(func() {
		if wavedBin, fixtureErr = buildWaved(repoRoot, testDir); fixtureErr != nil {
			return
		}
		if fixtureErr = os.Mkdir(tuners, 0o755); fixtureErr != nil {
			return
		}
		for _, sys := range wavefront.Systems() {
			sr, err := wavefront.Exhaustive(sys, smallSpace)
			if err != nil {
				fixtureErr = err
				return
			}
			p, err := wavefront.TrainPredictor(wavefront.ModelKindTree, sr, wavefront.DefaultTrainOptions())
			if err != nil {
				fixtureErr = err
				return
			}
			if fixtureErr = wavefront.SavePredictor(filepath.Join(tuners, sys.Name+".json"), p); fixtureErr != nil {
				return
			}
		}
	})
	if fixtureErr != nil {
		t.Fatal(fixtureErr)
	}
	return wavedBin, tuners
}

// testEnv scales a run down for tests: 1 s windows, one boot per set-up,
// daemons loading small-space tuners instead of training, a quarter of
// the frozen rates, host grids at a tenth of their sides, and fewer
// timed calls per layer.
func testEnv(t *testing.T) *env {
	e := defaultEnv(repoRoot, t.TempDir(), 7, time.Second)
	e.waved, e.tunersDir = fixture(t)
	e.setupReps = 1
	e.space = smallSpace
	e.rateScale, e.hostScale = 0.25, 0.1
	e.layerOps, e.effKeys = 100, 4
	return e
}

// benchmarkJSON is the part of BENCHMARK.json the tests read.
type benchmarkJSON struct {
	EndToEnd []e2eBound `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmark(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(repoRoot, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// requireLine fails unless out holds a "workload name value unit" line.
func requireLine(t *testing.T, out, workload, name, unit string) {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(workload+" "+name) + ` \S+ ` + regexp.QuoteMeta(unit) + `( \(|$)`)
	if !re.MatchString(out) {
		t.Errorf("%s: no %q line in the output", workload, workload+" "+name+" <value> "+unit)
	}
}

func TestBenchmarkJSONDeclaresWhatRunsReport(t *testing.T) {
	bj := readBenchmark(t)
	var e2e, layers []metricDef
	for _, m := range bj.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range bj.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit})
	}
	if !slices.Equal(e2e, e2eMetrics) {
		t.Errorf("BENCHMARK.json end_to_end %v, the benchmark reports %v", e2e, e2eMetrics)
	}
	if !slices.Equal(layers, layerMetrics()) {
		t.Errorf("BENCHMARK.json per_layer differs from the traced run's %d metrics", len(layerMetrics()))
	}
}

func TestSmoke(t *testing.T) {
	bj := readBenchmark(t)
	e := testEnv(t)
	ctx := context.Background()
	var out bytes.Buffer
	for _, w := range allWorkloads {
		res := newResult(w, e.seed, false)
		if err := runWorkload(ctx, e, res); err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		res.finish(e2eMetrics)
		out.Reset()
		res.printHuman(&out, e2eMetrics)
		if !res.Correct {
			t.Errorf("%s failed its checks:\n%s", w, out.String())
		}
		for _, m := range bj.EndToEnd {
			requireLine(t, out.String(), w, m.Name, m.Unit)
		}
	}
	res := newResult(wlTuneCold, e.seed, true)
	if err := runLayers(ctx, e, res, newRecorder()); err != nil {
		t.Fatalf("traced run: %v", err)
	}
	res.finish(layerMetrics())
	out.Reset()
	res.printHuman(&out, layerMetrics())
	if !res.Correct {
		t.Errorf("traced run failed its checks:\n%s", out.String())
	}
	for _, m := range bj.PerLayer {
		requireLine(t, out.String(), wlTuneCold, m.Name, m.Unit)
	}
}

// TestWrongRTimeFailsTheCheck puts a fake daemon in front of a real one:
// it inflates every single tune's rtime_sec by a tenth of a percent,
// which the served-plan check must catch.
func TestWrongRTimeFailsTheCheck(t *testing.T) {
	e := testEnv(t)
	d, err := startDaemon(e.waved, []string{"-tuners", e.tunersDir}, filepath.Join(e.workdir, "waved.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := d.stop(); err != nil {
			t.Error(err)
		}
	}()
	target, err := url.Parse(d.base)
	if err != nil {
		t.Fatal(err)
	}
	proxy := httputil.NewSingleHostReverseProxy(target)
	proxy.ModifyResponse = func(r *http.Response) error {
		if r.Request.URL.Path != "/v1/tune" || r.StatusCode != http.StatusOK {
			return nil
		}
		var body map[string]any
		err := json.NewDecoder(r.Body).Decode(&body)
		r.Body.Close()
		if err != nil {
			return err
		}
		body["rtime_sec"] = body["rtime_sec"].(float64) * 1.001
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		r.Body = io.NopCloser(bytes.NewReader(b))
		r.ContentLength = int64(len(b))
		r.Header.Set("Content-Length", strconv.Itoa(len(b)))
		return nil
	}
	fake := httptest.NewServer(proxy)
	defer fake.Close()

	res := newResult(wlTuneHot, e.seed, false)
	if err := driveTune(context.Background(), e, fake.URL, 0, false, res); err != nil {
		t.Fatal(err)
	}
	res.finish(e2eMetrics)
	if res.Correct || res.Failed == 0 {
		t.Fatalf("a daemon serving wrong runtimes passed: failed=%d correct=%t", res.Failed, res.Correct)
	}
	if !strings.Contains(strings.Join(res.problems, "\n"), "rtime_sec") {
		t.Errorf("no rtime_sec check failed; problems: %v", res.problems)
	}
}
