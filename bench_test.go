package repro

// The benchmark harness regenerates every table and figure of the
// paper's evaluation (see DESIGN.md section 4 for the experiment index).
// Benchmarks report the headline quantities of each figure via
// b.ReportMetric, so `go test -bench=. -benchmem` doubles as the
// reproduction run. The expensive artifacts (exhaustive search, trained
// tuners) are built once, outside the timed sections.

import (
	"context"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cpuexec"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/grid"
	"repro/internal/hw"
	"repro/internal/jobs"
	"repro/internal/kernels"
	"repro/internal/ml"
	"repro/internal/plan"
	"repro/internal/service"
	"repro/internal/telemetry"
	"repro/internal/tunecache"
	"repro/wavefront"
)

var (
	benchOnce sync.Once
	benchCtx  *experiments.Context
)

// benchContext returns the shared quick-configuration context with all
// searches and tuners pre-built.
func benchContext(b *testing.B) *experiments.Context {
	b.Helper()
	benchOnce.Do(func() {
		benchCtx = experiments.NewContext(experiments.Quick())
		for _, sys := range benchCtx.Cfg.Systems {
			if _, err := benchCtx.Search(sys); err != nil {
				panic(err)
			}
			if _, err := benchCtx.Tuner(sys); err != nil {
				panic(err)
			}
		}
	})
	return benchCtx
}

// ---- Tables ----

func BenchmarkTable3SpaceEnumeration(b *testing.B) {
	space := core.DefaultSpace()
	sys := hw.I7_2600K()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := space.Size(sys)
		if n == 0 {
			b.Fatal("empty space")
		}
		b.ReportMetric(float64(n), "configs")
	}
}

func BenchmarkTable4Systems(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.Table4(hw.Systems())
		if len(s) == 0 {
			b.Fatal("empty table")
		}
	}
}

// ---- Illustrative figures ----

func BenchmarkFig1Waveflow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(experiments.Fig1(64)) == 0 {
			b.Fatal("empty figure")
		}
	}
}

func BenchmarkFig2ThreePhase(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig2(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3HaloPartition(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig3(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Evaluation figures ----

func BenchmarkFig5Heatmaps(b *testing.B) {
	ctx := benchContext(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, sys := range ctx.Cfg.Systems {
			for _, dsize := range []int{1, 5} {
				d, err := ctx.Fig5(sys, dsize)
				if err != nil {
					b.Fatal(err)
				}
				if !d.BandMap.Complete() {
					b.Fatal("incomplete heatmap")
				}
			}
		}
	}
}

func BenchmarkFig6Baselines(b *testing.B) {
	ctx := benchContext(b)
	b.ResetTimer()
	var last []experiments.Fig6Row
	for i := 0; i < b.N; i++ {
		rows, err := ctx.Fig6()
		if err != nil {
			b.Fatal(err)
		}
		last = rows
	}
	for _, r := range last {
		b.ReportMetric(r.Best, "best_speedup_"+r.Sys.Name)
	}
}

func BenchmarkFig7AverageCase(b *testing.B) {
	ctx := benchContext(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, sys := range ctx.Cfg.Systems {
			for _, dsize := range []int{1, 5} {
				if _, err := ctx.Fig7(sys, dsize); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

func BenchmarkFig8Violins(b *testing.B) {
	ctx := benchContext(b)
	i7 := hw.I7_2600K()
	dims := []int{ctx.Cfg.Space.Dims[0], ctx.Cfg.Space.Dims[len(ctx.Cfg.Space.Dims)-1]}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vs, err := ctx.Fig8(i7, dims, []int{1, 5}, ctx.Cfg.Space.TSizes)
		if err != nil {
			b.Fatal(err)
		}
		if len(vs) == 0 {
			b.Fatal("no violins")
		}
	}
}

func BenchmarkFig9ModelTree(b *testing.B) {
	ctx := benchContext(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := ctx.Fig9(hw.I7_2600K())
		if err != nil {
			b.Fatal(err)
		}
		if len(s) == 0 {
			b.Fatal("empty tree")
		}
	}
}

func BenchmarkFig10Autotune(b *testing.B) {
	ctx := benchContext(b)
	b.ResetTimer()
	var rows []experiments.Fig10Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = ctx.Fig10()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.Efficiency, "efficiency_"+r.Sys.Name)
	}
}

func BenchmarkFig11AutotuneDetail(b *testing.B) {
	ctx := benchContext(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := ctx.Fig10()
		if err != nil {
			b.Fatal(err)
		}
		if len(experiments.RenderFig11(rows)) == 0 {
			b.Fatal("empty figure")
		}
	}
}

func BenchmarkHeadline(b *testing.B) {
	ctx := benchContext(b)
	b.ResetTimer()
	var h experiments.Headline
	for i := 0; i < b.N; i++ {
		var err error
		h, err = ctx.ComputeHeadline()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(h.MaxSpeedup, "max_speedup")
	b.ReportMetric(h.AvgSpeedup, "avg_speedup")
	b.ReportMetric(h.TunerEfficiency, "tuner_efficiency")
}

// ---- Extensions (the paper's future work) ----

func BenchmarkExtGPUScaling(b *testing.B) {
	var rows []experiments.ScalingRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.ExtGPUScaling(4)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.GPUs >= 1 {
			b.ReportMetric(r.Speedup, fmt.Sprintf("speedup_%dgpu", r.GPUs))
		}
	}
}

func BenchmarkExtOnlineTuning(b *testing.B) {
	ctx := benchContext(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctx.ExtOnline(hw.I7_2600K()); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Native and substrate micro-benchmarks ----

func BenchmarkNativeSerial(b *testing.B) {
	k := kernels.NewSynthetic(500, 1)
	g := grid.NewRect(256, 256, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cpuexec.RunSerial(k, g)
	}
}

func BenchmarkNativeParallelTiled(b *testing.B) {
	k := kernels.NewSynthetic(500, 1)
	g := grid.NewRect(256, 256, 1)
	ex := cpuexec.New(0)
	defer ex.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ex.Run(k, g, 16); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNativeParallelUntiled(b *testing.B) {
	k := kernels.NewSynthetic(500, 1)
	g := grid.NewRect(256, 256, 1)
	ex := cpuexec.New(0)
	defer ex.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ex.Run(k, g, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrontierDense pins the tentpole's perf acceptance: driving
// the dense sweep through the frontier abstraction must stay within
// tolerance of the closed-form anti-diagonal path it generalizes. The
// serial row times RunSerialFrontier's DiagFrontier fast path; the
// pooled pair compares the tile dataflow executor against RunFrontier
// over the same grid.
func BenchmarkFrontierDense(b *testing.B) {
	k := kernels.NewSynthetic(500, 1)
	b.Run("serial", func(b *testing.B) {
		g := grid.NewRect(256, 256, 1)
		for i := 0; i < b.N; i++ {
			if err := cpuexec.RunSerialFrontier(k, g, grid.NewDiagFrontier(256, 256)); err != nil {
				b.Fatal(err)
			}
		}
	})
	ex := cpuexec.New(0)
	defer ex.Close()
	b.Run("pooled/tilediag", func(b *testing.B) {
		g := grid.NewRect(256, 256, 1)
		for i := 0; i < b.N; i++ {
			if err := ex.Run(k, g, 16); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pooled/frontier", func(b *testing.B) {
		g := grid.NewRect(256, 256, 1)
		ctx := context.Background()
		for i := 0; i < b.N; i++ {
			if err := ex.RunFrontier(ctx, k, g, grid.NewDiagFrontier(256, 256)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFrontierIrregular measures the irregular substrate on the
// masked catalog workload it exists for: morphological reconstruction
// over a half-open 256² mask. "count" builds the kernel's frontier and
// counts its steps and cells (the set-up host runs pay before they
// compute); "ct=1" runs it cell-level, frontier build included, and
// "ct=16" through the tile scheduler.
func BenchmarkFrontierIrregular(b *testing.B) {
	k := kernels.NewMorphRecon(-1, 1)
	ex := cpuexec.New(0)
	defer ex.Close()
	ctx := context.Background()
	b.Run("count", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			grid.CountFrontier(grid.NewIrregularFrontier(256, 256, kernels.StencilOf(k), kernels.LiveOf(k, 256, 256)))
		}
	})
	for _, ct := range []int{1, 16} {
		b.Run(fmt.Sprintf("ct=%d", ct), func(b *testing.B) {
			b.ReportAllocs()
			g := grid.NewRect(256, 256, k.DSize())
			for i := 0; i < b.N; i++ {
				if err := ex.RunIrregular(ctx, k, g, ct); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEstimateHybrid times one Estimate of a GPU plan: dual-GPU
// plans with halo 20, 0 and 3 (a swap every 20, 1 and 3 diagonals), and
// an i3-540 plan that offloads every diagonal of a 3300x2000 grid to its
// one GPU.
func BenchmarkEstimateHybrid(b *testing.B) {
	gpuOnly := plan.Instance{Rows: 3300, Cols: 2000, TSize: 100, DSize: 1}
	dual := plan.Instance{Dim: 1900, TSize: 2000, DSize: 1}
	for _, c := range []struct {
		name string
		sys  hw.System
		inst plan.Instance
		par  plan.Params
	}{
		{"i7-2600K-dual", hw.I7_2600K(), dual, plan.Params{CPUTile: 8, Band: 1500, GPUTile: 1, Halo: 20}},
		{"i7-2600K-dual-halo0", hw.I7_2600K(), dual, plan.Params{CPUTile: 8, Band: 1500, GPUTile: 1, Halo: 0}},
		{"i7-2600K-dual-halo3", hw.I7_2600K(), dual, plan.Params{CPUTile: 8, Band: 1500, GPUTile: 1, Halo: 3}},
		{"i3-540-gpu-only", hw.I3_540(), gpuOnly, engine.GPUOnlyParamsFor(gpuOnly)},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := engine.Estimate(c.sys, c.inst, c.par, engine.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSimulateFunctional(b *testing.B) {
	sys := hw.I7_2600K()
	k := kernels.NewSynthetic(5, 1)
	par := plan.Params{CPUTile: 8, Band: 60, GPUTile: 1, Halo: 8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := engine.Simulate(sys, plan.Instance{Dim: 128}, k, par, engine.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExhaustiveQuickSearch times two quick-space searches per
// Table 4 system: "full" searches all 40 instances, as wavesweep and
// waverepro do, and "training" only the 12 that a quick-space tuner's
// training reads (core.TrainingInstances, the search inside
// core.TrainFromSpace and wavetrain), on the serving cpu-tile axis
// (core.ServingSpace).
// The dual-GPU systems evaluate about three times as many configurations
// as the single-GPU i3-540. With two workers on a 2-vCPU Xeon shared
// with other load, the medians of five runs are 3.7 ms (i3-540) and
// 8.2 ms (each dual-GPU system) for "full", and 1.1 ms and 3.0–3.2 ms
// for "training"; with one worker, "training" reads 1.6 ms and
// 4.1 ms (medians of three).
func BenchmarkExhaustiveQuickSearch(b *testing.B) {
	space := core.QuickSpace()
	spaces := []struct {
		name  string
		space core.Space
	}{{"full", space}, {"training", trainingSubspace(b, core.ServingSpace(space))}}
	for _, sp := range spaces {
		for _, sys := range hw.Systems() {
			b.Run(sp.name+"/"+sys.Name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sr, err := core.Exhaustive(sys, sp.space, core.SearchOptions{})
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(float64(sr.Evaluations()), "evals")
				}
			})
		}
	}
}

// trainingSubspace restricts a square space to the dims and tsizes of its
// default training instances, so an exhaustive search of it covers
// exactly core.TrainingInstances.
func trainingSubspace(b *testing.B, space core.Space) core.Space {
	insts := core.TrainingInstances(space, core.TrainOptions{})
	sub := space
	sub.Dims, sub.TSizes = nil, nil
	for _, in := range insts {
		if !slices.Contains(sub.Dims, in.Dim) {
			sub.Dims = append(sub.Dims, in.Dim)
		}
		if !slices.Contains(sub.TSizes, in.TSize) {
			sub.TSizes = append(sub.TSizes, in.TSize)
		}
	}
	if !slices.Equal(sub.Instances(), insts) {
		b.Fatalf("training sub-space lists %d instances, want the %d training instances", len(sub.Instances()), len(insts))
	}
	return sub
}

// ---- Serving-layer micro-benchmarks ----

// BenchmarkPlanCacheHit measures the hot path of the tuning service: a
// resident plan-cache lookup (one mutex acquisition, an LRU promotion
// and a map hit).
func BenchmarkPlanCacheHit(b *testing.B) {
	c := tunecache.NewShardedCtx(0, 0, func(_ context.Context, system string, in plan.Instance) (tunecache.Plan, error) {
		return tunecache.Plan{
			Par:     plan.Params{CPUTile: 8, Band: -1, GPUTile: 1, Halo: -1},
			RTimeNs: 1e6, SerialNs: 2e6,
		}, nil
	})
	inst := plan.Instance{Dim: 1900, TSize: 2000, DSize: 1}
	if _, _, err := c.Get("i7-2600K", inst); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, out, err := c.Get("i7-2600K", inst); err != nil || out != tunecache.Hit {
			b.Fatalf("lookup = %v (%v), want hit", out, err)
		}
	}
}

// BenchmarkPlanCacheHitParallel measures the contended hot path of the
// tuning service — resident lookups from every core at once — against
// the single-lock baseline (shards=1) and the sharded default
// (shards=GOMAXPROCS). On multi-core the sharded variant's hit
// throughput should exceed the single lock's: distinct keys ride
// different shard mutexes instead of serializing on one.
func BenchmarkPlanCacheHitParallel(b *testing.B) {
	warm := func(b *testing.B, shards int) (*tunecache.Cache, []plan.Instance) {
		b.Helper()
		c := tunecache.NewShardedCtx(4096, shards, func(_ context.Context, system string, in plan.Instance) (tunecache.Plan, error) {
			return tunecache.Plan{
				Par:     plan.Params{CPUTile: 8, Band: -1, GPUTile: 1, Halo: -1},
				RTimeNs: 1e6, SerialNs: 2e6,
			}, nil
		})
		insts := make([]plan.Instance, 64)
		for i := range insts {
			insts[i] = plan.Instance{Dim: 300 + 25*i, TSize: 2000, DSize: 1}
			if _, _, err := c.Get("i7-2600K", insts[i]); err != nil {
				b.Fatal(err)
			}
		}
		return c, insts
	}
	shardCounts := []int{1, runtime.GOMAXPROCS(0)}
	if shardCounts[1] <= 1 {
		// Single-core host: still exercise the sharded code path, even
		// though only multi-core shows the throughput separation.
		shardCounts[1] = 8
	}
	for _, shards := range shardCounts {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			c, insts := warm(b, shards)
			if got := len(c.ShardStats()); got != shards {
				b.Fatalf("cache built with %d shards, want %d", got, shards)
			}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				// Each goroutine walks the warm keys from its own offset so
				// the traffic spreads across shards like independent clients.
				i := 0
				for pb.Next() {
					in := insts[i%len(insts)]
					i++
					if _, out, err := c.Get("i7-2600K", in); err != nil || out != tunecache.Hit {
						b.Errorf("lookup = %v (%v), want hit", out, err)
						return
					}
				}
			})
		})
	}
}

// BenchmarkTuneDuringPromotion measures the serving hot path while the
// background retrainer churns: resident lookups for one system from
// every core, with a promotion loop on the other system invalidating
// its cache entries and re-warming them every half millisecond (the
// plan-cache side of a promotion: the fill never reads a tuner). Targeted invalidation means the served system's
// entries stay resident throughout, so the medians should land within a
// few percent of BenchmarkPlanCacheHitParallel's sharded variant.
func BenchmarkTuneDuringPromotion(b *testing.B) {
	fill := func(_ context.Context, system string, in plan.Instance) (tunecache.Plan, error) {
		return tunecache.Plan{
			Par:     plan.Params{CPUTile: 8, Band: -1, GPUTile: 1, Halo: -1},
			RTimeNs: 1e6, SerialNs: 2e6,
		}, nil
	}
	shards := runtime.GOMAXPROCS(0)
	if shards <= 1 {
		shards = 8
	}
	c := tunecache.NewShardedCtx(4096, shards, fill)
	insts := make([]plan.Instance, 64)
	for i := range insts {
		insts[i] = plan.Instance{Dim: 300 + 25*i, TSize: 2000, DSize: 1}
		if _, _, err := c.Get("i7-2600K", insts[i]); err != nil {
			b.Fatal(err)
		}
	}
	churn := make([]plan.Instance, 8)
	for i := range churn {
		churn[i] = plan.Instance{Dim: 400 + 50*i, TSize: 2000, DSize: 1}
		if _, _, err := c.Get("i3-540", churn[i]); err != nil {
			b.Fatal(err)
		}
	}

	// One synchronous promotion before the clock starts, so the
	// invalidation path is exercised even on the harness's N=1 sizing
	// pass.
	promotions := 1
	c.InvalidateSystem("i3-540")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			promotions++
			c.InvalidateSystem("i3-540")
			for _, in := range churn {
				if _, _, err := c.Get("i3-540", in); err != nil {
					b.Error(err)
					return
				}
			}
			time.Sleep(500 * time.Microsecond)
		}
	}()

	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			in := insts[i%len(insts)]
			i++
			if _, out, err := c.Get("i7-2600K", in); err != nil || out != tunecache.Hit {
				b.Errorf("lookup = %v (%v), want hit: promotion must not evict other systems", out, err)
				return
			}
		}
	})
	b.StopTimer()
	close(stop)
	wg.Wait()
	b.ReportMetric(float64(promotions), "promotions")
}

// BenchmarkMetricsOverhead prices the observability layer on the
// serving hot path. The bare variant is the raw plan-cache hit; the
// instrumented variant adds everything the daemon's telemetry does per
// tune request — the request-scoped http.request and cache.lookup
// spans with annotations, the per-route request counter, and the
// lookup/latency histogram observations. The delta between the two is
// the total per-request metrics cost (about a microsecond); the served
// variant runs the real thing — POST /v1/tune on a warm cache through
// the fully instrumented daemon — whose per-request time dwarfs that
// delta, keeping the telemetry share of the serving hot path well
// under 5%.
func BenchmarkMetricsOverhead(b *testing.B) {
	fill := func(_ context.Context, system string, in plan.Instance) (tunecache.Plan, error) {
		return tunecache.Plan{
			Par:     plan.Params{CPUTile: 8, Band: -1, GPUTile: 1, Halo: -1},
			RTimeNs: 1e6, SerialNs: 2e6,
		}, nil
	}
	inst := plan.Instance{Dim: 1900, TSize: 2000, DSize: 1}

	b.Run("bare", func(b *testing.B) {
		c := tunecache.NewShardedCtx(0, 0, fill)
		if _, _, err := c.Get("i7-2600K", inst); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, out, err := c.Get("i7-2600K", inst); err != nil || out != tunecache.Hit {
				b.Fatalf("lookup = %v (%v), want hit", out, err)
			}
		}
	})

	b.Run("instrumented", func(b *testing.B) {
		c := tunecache.NewShardedCtx(0, 0, fill)
		if _, _, err := c.Get("i7-2600K", inst); err != nil {
			b.Fatal(err)
		}
		reg := telemetry.NewRegistry()
		requests := reg.CounterVec("waved_http_requests_total",
			"Requests handled, by route.", "route").With("tune")
		latency := reg.HistogramVec("waved_http_request_duration_seconds",
			"End-to-end request latency, by route.", nil, "route").With("tune")
		lookupSec := reg.Histogram("waved_cache_lookup_duration_seconds",
			"Plan-cache lookup latency on the tune path.", nil)
		base := telemetry.WithRequestID(context.Background(), telemetry.NewRequestID())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ctx, span := telemetry.StartRootSpan(base, "http.request")
			span.Annotate("route", "tune")
			lctx, lookup := telemetry.StartSpan(ctx, "cache.lookup")
			_, out, err := c.GetCtx(lctx, "i7-2600K", inst)
			lookupSec.Observe(lookup.End().Seconds())
			if err != nil || out != tunecache.Hit {
				b.Fatalf("lookup = %v (%v), want hit", out, err)
			}
			requests.Inc()
			latency.Observe(span.End().Seconds())
		}
	})

	b.Run("served", func(b *testing.B) {
		srv, err := wavefront.NewTuningServer(wavefront.TuningConfig{
			Systems: []wavefront.System{hw.I7_2600K()},
			Tuners:  service.NewStaticSource(benchTuner(b)),
		})
		if err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		body := `{"system":"i7-2600K","dim":1900,"tsize":2000,"dsize":1}`
		post := func() {
			resp, err := http.Post(ts.URL+"/v1/tune", "application/json", strings.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("tune status %d", resp.StatusCode)
			}
		}
		post() // warm the cache: every timed iteration is a hit
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			post()
		}
	})
}

// BenchmarkTuneBatchEndpoint measures POST /v1/tune/batch end to end on
// a warm cache: one round trip answering a full batch of shapes.
func BenchmarkTuneBatchEndpoint(b *testing.B) {
	srv, err := wavefront.NewTuningServer(wavefront.TuningConfig{
		Systems: []wavefront.System{hw.I7_2600K()},
		Tuners:  service.NewStaticSource(benchTuner(b)),
	})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	req := wavefront.BatchTuneRequest{System: "i7-2600K"}
	for i := 0; i < 32; i++ {
		tsz, dsz := 2000.0, 1
		req.Items = append(req.Items, wavefront.TuneRequest{Dim: 300 + 50*(i%16), TSize: &tsz, DSize: &dsz})
	}
	// Warm pass outside the timed section.
	if _, err := wavefront.TuneBatch(context.Background(), nil, ts.URL, req); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := wavefront.TuneBatch(context.Background(), nil, ts.URL, req)
		if err != nil {
			b.Fatal(err)
		}
		if out.Errors != 0 {
			b.Fatalf("batch errors: %+v", out)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*len(req.Items))/b.Elapsed().Seconds(), "items/s")
}

// benchTuner trains (once) the quick-space tuner the serving benchmarks
// predict through.
func benchTuner(b *testing.B) *core.Tuner {
	b.Helper()
	ctx := benchContext(b)
	t, err := ctx.Tuner(hw.I7_2600K())
	if err != nil {
		b.Fatal(err)
	}
	return t
}

// predictBackendSink keeps Predict calls observable to the compiler.
var predictBackendSink core.Prediction

// BenchmarkPredictBackend times one uncached model evaluation of the
// paper's SVM+M5/REP tree ensemble, gate/clamp/Normalize included, at
// zero allocations.
func BenchmarkPredictBackend(b *testing.B) {
	insts := []plan.Instance{
		{Dim: 500, TSize: 200, DSize: 1},
		{Dim: 1100, TSize: 2000, DSize: 5},
		{Dim: 1900, TSize: 40, DSize: 3},
		{Dim: 2900, TSize: 11000, DSize: 1},
	}
	tree := benchTuner(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		predictBackendSink = tree.Predict(insts[i%len(insts)])
	}
}

// BenchmarkPredictTimed times the served decision (Tuner.PredictTimed:
// the models' plan and the climb over its neighbourhood's ring) of each
// shipped factory tuner over a spread of square, rectangular and masked
// instances across the serving range, and reports microseconds per
// instance.
func BenchmarkPredictTimed(b *testing.B) {
	var insts []plan.Instance
	for _, dim := range []int{300, 700, 1300, 2100, 3300} {
		for _, tsize := range []float64{0.5, 10, 100, 1000, 8000} {
			for _, dsize := range []int{0, 1, 5} {
				insts = append(insts,
					plan.Instance{Dim: dim, TSize: tsize, DSize: dsize},
					plan.Instance{Rows: dim / 2, Cols: dim * 3 / 2, TSize: tsize, DSize: dsize},
					plan.Instance{Dim: dim, TSize: tsize, DSize: dsize, LiveCells: dim * (dim + 1) / 2})
			}
		}
	}
	for _, sys := range hw.Systems() {
		b.Run(sys.Name, func(b *testing.B) {
			data, err := fs.ReadFile(service.FactoryTuners(), sys.Name+".json")
			if err != nil {
				b.Fatal(err)
			}
			p, err := core.UnmarshalPredictor(data)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, inst := range insts {
					if _, _, _, err := p.PredictTimed(inst); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(insts)), "us/instance")
		})
	}
}

// BenchmarkJobThroughput measures end-to-end submit→complete job
// operations per second at a fixed worker count, with the plan fetch
// served from a warm cache and the execution measured on the modeled
// system.
func BenchmarkJobThroughput(b *testing.B) {
	cache := tunecache.NewShardedCtx(0, 0, func(_ context.Context, system string, in plan.Instance) (tunecache.Plan, error) {
		return tunecache.Plan{
			Par:     plan.Params{CPUTile: 8, Band: -1, GPUTile: 1, Halo: -1},
			RTimeNs: 1e6, SerialNs: 2e6,
		}, nil
	})
	m, err := jobs.New(jobs.Config{
		Workers:    4,
		QueueDepth: 1 << 16,
		MaxRecords: 1 << 16,
		Plans:      cache.Get,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer m.Shutdown(context.Background())
	inst := plan.Instance{Dim: 256, TSize: 100, DSize: 1}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// b.Fatal must not be called from RunParallel goroutines; report
		// with b.Error and bail out of the loop instead.
		for pb.Next() {
			j, err := m.Submit(jobs.Spec{System: "i7-2600K", Inst: inst})
			if err != nil {
				b.Error(err)
				return
			}
			done, err := m.Await(context.Background(), j.ID)
			if err != nil {
				b.Error(err)
				return
			}
			if done.State != jobs.StateSucceeded {
				b.Errorf("job %s = %v (%s)", j.ID, done.State, done.Err)
				return
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
}

// BenchmarkPipelineThroughput measures end-to-end submit→complete
// wave-DAG pipeline operations per second: each pipeline is two
// sequential waves of two parallel jobs, so the figure prices the wave
// barrier and driver overhead on top of raw job throughput.
func BenchmarkPipelineThroughput(b *testing.B) {
	cache := tunecache.NewShardedCtx(0, 0, func(_ context.Context, system string, in plan.Instance) (tunecache.Plan, error) {
		return tunecache.Plan{
			Par:     plan.Params{CPUTile: 8, Band: -1, GPUTile: 1, Halo: -1},
			RTimeNs: 1e6, SerialNs: 2e6,
		}, nil
	})
	m, err := jobs.New(jobs.Config{
		Workers:      4,
		QueueDepth:   1 << 16,
		MaxRecords:   1 << 16,
		MaxPipelines: 1 << 10,
		Plans:        cache.Get,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer m.Shutdown(context.Background())
	job := func(dim int) jobs.PipelineJob {
		return jobs.PipelineJob{Spec: jobs.Spec{
			System: "i7-2600K",
			Inst:   plan.Instance{Dim: dim, TSize: 100, DSize: 1},
		}}
	}
	spec := jobs.PipelineSpec{Waves: []jobs.WaveSpec{
		{Jobs: []jobs.PipelineJob{job(256), job(256)}},
		{Jobs: []jobs.PipelineJob{job(256), job(256)}},
	}}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			p, err := m.SubmitPipeline(spec)
			if err != nil {
				b.Error(err)
				return
			}
			done, err := m.AwaitPipeline(context.Background(), p.ID)
			if err != nil {
				b.Error(err)
				return
			}
			if done.State != jobs.PipeSucceeded {
				b.Errorf("pipeline %s = %v (%s)", p.ID, done.State, done.Err)
				return
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pipelines/s")
}

func BenchmarkM5Fit(b *testing.B) {
	d := ml.NewDataset("x", "y")
	for i := 0; i < 500; i++ {
		x := float64(i % 25)
		y := float64((i * 7) % 13)
		target := 2*x - y
		if x > 12 {
			target = -x + 3*y
		}
		d.Add([]float64{x, y}, target)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ml.FitM5(d)
	}
}
