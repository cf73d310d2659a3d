// Command wavetune deploys the trained autotuner on an application: it
// predicts tuned parameters for the requested instance with the factory
// tuner waved serves (or a -tuner file), compares the
// predicted configuration against the simple baselines, and can execute
// the run functionally on the simulated platform. Applications resolve
// through the registry (internal/apps) — `-list` prints the catalog, and
// app parameters are passed as repeated `-param name=value` flags.
//
// With -batch, wavetune turns into a client of a running waved daemon:
// it reads one shape per line from the file ("1900" or "600x1400", #
// comments allowed), submits them through POST /v1/tune/batch — one
// round trip when they fit the daemon's batch limit
// (wavefront.BatchLimit), split into requests of that size otherwise
// (the daemon deduplicates repeated shapes within a request and fans
// distinct ones out across its plan-cache shards) —
// and prints the per-shape results; per-item errors are reported
// inline without failing the rest of the batch.
//
// Usage:
//
//	wavetune -list
//	wavetune [-system i7-2600K] [-app nash] [-dim 1900] [-param rounds=2] [-tuner t.json] [-run]
//	wavetune -app swaffine -dim 2700 -param gap_open=12
//	wavetune -app synthetic -param tsize=4000 -param dsize=5 -dim 1100
//	wavetune -batch shapes.txt -addr http://localhost:8080 -app nash
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/hw"
	"repro/internal/plan"
	"repro/wavefront"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("wavetune: ")
	sysName := flag.String("system", "i7-2600K", "target system")
	appName := flag.String("app", "nash", "application from the catalog (see -list)")
	list := flag.Bool("list", false, "print the application catalog and exit")
	dim := flag.Int("dim", 1900, "problem dimension")
	values := apps.Values{}
	flag.Func("param", "application parameter name=value (repeatable)", func(s string) error {
		name, val, ok := strings.Cut(s, "=")
		if !ok {
			return fmt.Errorf("want name=value, got %q", s)
		}
		x, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return fmt.Errorf("parameter %s: %v", name, err)
		}
		values[name] = x
		return nil
	})
	tunerPath := flag.String("tuner", "", "predict with this tuner JSON (wavetrain -save) instead of the factory tuner")
	run := flag.Bool("run", false, "execute the tuned configuration functionally (small dims only)")
	batchPath := flag.String("batch", "", "file of shapes (one per line: 1900 or 600x1400) to tune in one daemon call")
	addr := flag.String("addr", "http://localhost:8080", "waved base URL for -batch mode")
	flag.Parse()

	if *list {
		fmt.Print(apps.RenderCatalog())
		return
	}
	a, known := apps.Lookup(*appName)
	if !known && *batchPath == "" {
		log.Fatal(apps.UnknownAppError(*appName))
	}
	if *batchPath != "" {
		runBatch(*batchPath, *addr, *sysName, *appName, values)
		return
	}
	sys, ok := hw.ByName(*sysName)
	if !ok {
		log.Fatalf("unknown system %q", *sysName)
	}
	inst, _, err := a.InstanceFor(*dim, *dim, values)
	if err != nil {
		log.Fatal(err)
	}

	var tuner core.Predictor
	if *tunerPath != "" {
		tuner, err = core.LoadPredictor(*tunerPath)
		if err != nil {
			log.Fatal(err)
		}
		if tuner.System().Name != sys.Name {
			log.Fatalf("tuner was trained for %s, not %s", tuner.System().Name, sys.Name)
		}
	} else if tuner, err = wavefront.NewDirTunerSource(wavefront.FactoryTuners()).Tuner(sys); err != nil {
		log.Fatal(err)
	}

	pred, auto, serial, err := tuner.PredictTimed(inst)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("application: %s (%v) on %s\n", a.Name, inst, sys.Name)
	fmt.Printf("prediction: %v\n\n", pred)

	cpuRes, err := engine.Estimate(sys, inst, engine.CPUOnlyParams(8), engine.Options{})
	if err != nil {
		log.Fatal(err)
	}
	gpuRes, err := engine.Estimate(sys, inst, engine.GPUOnlyParamsFor(inst), engine.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("modeled runtimes:\n")
	fmt.Printf("  serial       %10.3fs  (1.0x)\n", serial/1e9)
	fmt.Printf("  parallel CPU %10.3fs  (%.1fx)\n", cpuRes.RTimeSec(), serial/cpuRes.RTimeNs)
	fmt.Printf("  GPU only     %10.3fs  (%.1fx)\n", gpuRes.RTimeSec(), serial/gpuRes.RTimeNs)
	fmt.Printf("  autotuned    %10.3fs  (%.1fx)\n", auto/1e9, serial/auto)

	if *run {
		if pred.Serial {
			fmt.Println("\ntuner chose serial execution; nothing to simulate")
			return
		}
		if *dim > 400 {
			log.Fatalf("-run executes every cell functionally; use -dim <= 400")
		}
		// The kernel is only needed for functional execution; prediction
		// runs never pay for its construction (e.g. knapsack's O(dim)
		// weight table).
		k, err := a.NewKernel(*dim, *dim, values)
		if err != nil {
			log.Fatal(err)
		}
		res, g, err := engine.Simulate(sys, plan.Instance{Dim: *dim}, k, pred.Par, engine.Options{})
		if err != nil {
			log.Fatal(err)
		}
		want := engine.Reference(*dim, *dim, k)
		fmt.Printf("\nfunctional run: virtual time %.3fs, %d kernels, %d swaps, results correct: %v\n",
			res.RTimeSec(), res.Kernels, res.Swaps, g.Equal(want))
	}
}

// runBatch is the -batch client mode: read the shapes file, submit the
// shapes through POST /v1/tune/batch — one call when they fit the
// daemon's batch limit, split into requests of that size otherwise, so
// a larger shapes file still tunes — and print per-shape results. Every
// item carries values as its params.
func runBatch(path, addr, system, app string, values apps.Values) {
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()

	req := wavefront.BatchTuneRequest{System: system}
	var shapes []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// The shape grammar is owned by core (the search-CSV dim column);
		// "1900" is square, "600x1400" rectangular.
		rows, cols, err := core.ParseShape(line)
		if err != nil {
			log.Fatal(err)
		}
		item := wavefront.TuneRequest{App: app, Params: values}
		if rows == cols {
			item.Dim = rows
		} else {
			item.Rows, item.Cols = rows, cols
		}
		req.Items = append(req.Items, item)
		shapes = append(shapes, line)
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
	if len(req.Items) == 0 {
		log.Fatalf("no shapes in %s", path)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	calls, errors := 0, 0
	var results []wavefront.BatchTuneResult
	for lo := 0; lo < len(req.Items); lo += wavefront.BatchLimit {
		hi := min(lo+wavefront.BatchLimit, len(req.Items))
		part := wavefront.BatchTuneRequest{System: req.System, Items: req.Items[lo:hi]}
		resp, err := wavefront.TuneBatch(ctx, nil, addr, part)
		if err != nil {
			log.Fatal(err)
		}
		calls++
		errors += resp.Errors
		results = append(results, resp.Results...)
	}
	if len(results) > len(shapes) {
		// Never index past the shapes we actually submitted, whatever the
		// daemon answered.
		results = results[:len(shapes)]
	}
	fmt.Printf("batch of %d shapes on %s via %s (%d calls, %d errors)\n\n",
		len(results), system, addr, calls, errors)
	for i, res := range results {
		shape := shapes[i]
		if res.Error != "" {
			fmt.Printf("%-12s ERROR %s\n", shape, res.Error)
			continue
		}
		mode := "parallel"
		if res.Serial {
			mode = "serial"
		}
		fmt.Printf("%-12s %-8s cpu_tile=%-3d band=%-5d gpus=%d gpu_tile=%-3d halo=%-3d rtime=%.3gs speedup=%.1fx (%s)\n",
			shape, mode, res.Params.CPUTile, res.Params.Band, res.Params.GPUCount,
			res.Params.GPUTile, res.Params.Halo, res.RTimeSec, res.Speedup, res.Cache)
	}
	if errors > 0 {
		os.Exit(1)
	}
}
