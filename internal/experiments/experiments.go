// Package experiments regenerates every table and figure of the paper's
// evaluation: the exhaustive-search heatmaps (Figure 5), baseline
// comparisons (Figure 6), average-case analysis (Figure 7), sensitivity
// violins (Figure 8), the learned model tree (Figure 9), the autotuning
// results (Figures 10 and 11) and the headline numbers, plus the
// illustrative Figures 1-3 and Tables 3-4.
//
// A Context caches the expensive artifacts (exhaustive searches, trained
// tuners) per system so the experiment runners compose cheaply.
package experiments

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/hw"
	"repro/internal/plan"
	"repro/internal/report"
	"repro/internal/stats"
)

// Config selects the scale of the reproduction.
type Config struct {
	Space   core.Space
	Systems []hw.System
	// NashDims and NashRounds define the Figure 10/11 evaluation grid.
	NashDims   []int
	NashRounds []int
	// SeqDims define the sequence-comparison evaluation instances.
	SeqDims []int
}

// Full returns the paper-scale configuration.
func Full() Config {
	return Config{
		Space:      core.DefaultSpace(),
		Systems:    hw.Systems(),
		NashDims:   []int{500, 700, 1100, 1900, 2700},
		NashRounds: []int{1, 2, 4, 8, 16},
		SeqDims:    []int{500, 1100, 1900, 2700, 3100},
	}
}

// Quick returns a reduced configuration for tests and benchmarks.
func Quick() Config {
	return Config{
		Space:      core.QuickSpace(),
		Systems:    hw.Systems(),
		NashDims:   []int{700, 1900},
		NashRounds: []int{1, 8},
		SeqDims:    []int{700, 1900},
	}
}

// Context caches searches and tuners per system.
type Context struct {
	Cfg Config

	mu       sync.Mutex
	searches map[string]*core.SearchResult
	tuners   map[string]*core.Tuner
}

// NewContext creates a context for the given configuration.
func NewContext(cfg Config) *Context {
	return &Context{
		Cfg:      cfg,
		searches: map[string]*core.SearchResult{},
		tuners:   map[string]*core.Tuner{},
	}
}

// Search returns the cached exhaustive search for sys, running it on
// first use. On error the partial result (the instances that completed
// before the failure) is returned alongside it, but never cached — the
// next call retries the full search.
func (c *Context) Search(sys hw.System) (*core.SearchResult, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if sr, ok := c.searches[sys.Name]; ok {
		return sr, nil
	}
	sr, err := core.Exhaustive(sys, c.Cfg.Space, core.SearchOptions{})
	if err != nil {
		return sr, err
	}
	c.searches[sys.Name] = sr
	return sr, nil
}

// Tuner returns the cached trained tuner for sys, trained from a search
// of only the instances training samples (core.TrainFromSpace).
func (c *Context) Tuner(sys hw.System) (*core.Tuner, error) {
	c.mu.Lock()
	if t, ok := c.tuners[sys.Name]; ok {
		c.mu.Unlock()
		return t, nil
	}
	c.mu.Unlock()
	t, err := core.TrainFromSpace(sys, c.Cfg.Space, core.DefaultTrainOptions())
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.tuners[sys.Name] = t
	c.mu.Unlock()
	return t, nil
}

// ---- Figure 1: wavefront parallelism profile ----

// Fig1 renders the diagonal parallelism profile of a dim-sized wavefront:
// the number of concurrently computable elements per iteration.
func Fig1(dim int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 1: wavefront parallelism profile, dim=%d\n", dim)
	for d := 0; d < grid.NumDiagsRect(dim, dim); d++ {
		fmt.Fprintf(&b, "iter %2d: %s (%d)\n", d,
			strings.Repeat("*", grid.DiagLenRect(dim, dim, d)), grid.DiagLenRect(dim, dim, d))
	}
	return b.String()
}

// ---- Figure 2: three-phase decomposition ----

// Fig2 renders the paper's Figure 2: the 20x20 grid with 4x4 CPU tiles in
// phases 1 and 3 and a GPU band in phase 2.
func Fig2() (string, error) {
	inst := plan.Instance{Dim: 20, TSize: 10, DSize: 1}
	par := plan.Params{CPUTile: 4, Band: 5, GPUTile: 1, Halo: -1}
	pl, err := plan.Build(inst, par)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 2: three-phase strategy, %v, %v\n", inst, par)
	fmt.Fprintf(&b, "phase 1: diagonals [%d,%d] on CPU (tiled %dx%d)\n",
		pl.P1Lo, pl.P1Hi, par.CPUTile, par.CPUTile)
	fmt.Fprintf(&b, "phase 2: diagonals [%d,%d] on GPU (%d kernel calls)\n",
		pl.GLo, pl.GHi, pl.GPUDiags())
	fmt.Fprintf(&b, "phase 3: diagonals [%d,%d] on CPU (tiled)\n", pl.P3Lo, pl.P3Hi)
	for r := 0; r < inst.Dim; r++ {
		for c := 0; c < inst.Dim; c++ {
			d := r + c
			switch {
			case d < pl.GLo:
				b.WriteByte('1')
			case d <= pl.GHi:
				b.WriteByte('G')
			default:
				b.WriteByte('3')
			}
		}
		b.WriteByte('\n')
	}
	return b.String(), nil
}

// ---- Figure 3: dual-GPU partitioning with halos ----

// Fig3 renders the partitioning of a few diagonals between two GPUs with
// a halo, marking each device's share and the redundantly computed
// overlap.
func Fig3() (string, error) {
	inst := plan.Instance{Dim: 16, TSize: 10, DSize: 1}
	par := plan.Params{CPUTile: 4, Band: 3, GPUTile: 1, Halo: 3}
	pl, err := plan.Build(inst, par)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3: partitioning of %d diagonals among two GPUs, halo=%d\n",
		pl.GPUDiags(), par.Halo)
	a0 := grid.DiagStartRowRect(inst.Dim, inst.Dim, pl.GLo)
	bRow := a0 + grid.DiagLenRect(inst.Dim, inst.Dim, pl.GLo)/2
	for i, d := 0, pl.GLo; d <= pl.GHi; i, d = i+1, d+1 {
		l := grid.DiagLenRect(inst.Dim, inst.Dim, d)
		ov := pl.SwapPeriod() - 1 - i%pl.SwapPeriod()
		start := grid.DiagStartRowRect(inst.Dim, inst.Dim, d)
		fmt.Fprintf(&b, "diag %3d: ", d)
		for r := start; r < start+l; r++ {
			inDev0 := r < bRow
			inDev1 := r >= bRow-ov
			switch {
			case inDev0 && inDev1:
				b.WriteByte('X') // redundant overlap
			case inDev0:
				b.WriteByte('0')
			default:
				b.WriteByte('1')
			}
		}
		b.WriteByte('\n')
	}
	b.WriteString("0 = GPU0, 1 = GPU1, X = overlap (redundantly computed halo)\n")
	return b.String(), nil
}

// ---- Tables 3 and 4 ----

// Table3 renders the search-space ranges.
func Table3(space core.Space) string {
	t := report.NewTable("parameter", "range")
	t.Add("dim", fmt.Sprintf("%v", space.Dims))
	t.Add("tsize", fmt.Sprintf("%v", space.TSizes))
	t.Add("dsize", fmt.Sprintf("%v", space.DSizes))
	t.Add("cpu-tile", fmt.Sprintf("%v", space.CPUTiles))
	t.Add("band", "-1 to 2*dim-1 (fractions of dim)")
	t.Add("halo", "-1 to 0.5*(first offloaded diagonal)")
	t.Add("gpu-tile", fmt.Sprintf("%v", space.GPUTiles))
	return "Table 3: parameter ranges\n" + t.String()
}

// Table4 renders the experimental systems.
func Table4(systems []hw.System) string {
	t := report.NewTable("system", "freq(MHz)", "cores(HT)", "mem(GB)", "gpu", "gpu freq", "CU", "gpu mem")
	for _, s := range systems {
		names := make([]string, len(s.GPUs))
		for i, g := range s.GPUs {
			names[i] = g.Name
		}
		g := s.GPUs[0]
		t.Add(s.Name, s.CPU.FreqMHz, s.CPU.Cores, s.CPU.MemGB,
			strings.Join(names, ", "), g.FreqMHz, g.CUs, g.MemGB)
	}
	return "Table 4: experimental systems\n" + t.String()
}

// ---- Figure 5: heatmaps of optimal band and halo ----

// Fig5Cell is the optimum at one (dim, tsize) point.
type Fig5Cell struct {
	Dim   int
	TSize float64
	Band  int
	Halo  int
	GPUs  int
}

// Fig5Data holds the per-system, per-dsize optimal-parameter maps.
type Fig5Data struct {
	Sys   hw.System
	DSize int
	Cells []Fig5Cell
	// BandMap and HaloMap are the rendered heatmaps (halo only for
	// multi-GPU systems, as in the paper).
	BandMap *stats.Heatmap
	HaloMap *stats.Heatmap
}

// Fig5 computes the best-point heatmaps for one system and dsize.
func (c *Context) Fig5(sys hw.System, dsize int) (*Fig5Data, error) {
	sr, err := c.Search(sys)
	if err != nil {
		return nil, err
	}
	rows := append([]int(nil), c.Cfg.Space.Dims...)
	cols := make([]int, len(c.Cfg.Space.TSizes))
	for i, t := range c.Cfg.Space.TSizes {
		cols[i] = int(t)
	}
	d := &Fig5Data{Sys: sys, DSize: dsize,
		BandMap: stats.NewHeatmap(rows, cols), HaloMap: stats.NewHeatmap(rows, cols)}
	for i := range sr.Instances {
		ir := &sr.Instances[i]
		if ir.Inst.DSize != dsize {
			continue
		}
		best, ok := ir.Best()
		if !ok {
			continue
		}
		cell := Fig5Cell{Dim: ir.Inst.Dim, TSize: ir.Inst.TSize,
			Band: best.Par.Band, Halo: best.Par.Halo, GPUs: best.Par.GPUCount()}
		d.Cells = append(d.Cells, cell)
		if err := d.BandMap.Set(cell.Dim, int(cell.TSize), float64(cell.Band)); err != nil {
			return nil, err
		}
		if err := d.HaloMap.Set(cell.Dim, int(cell.TSize), float64(cell.Halo)); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// Render prints the band (and for multi-GPU systems, halo) heatmaps.
func (d *Fig5Data) Render() string {
	var b strings.Builder
	elem := grid.ElemBytes(d.DSize)
	fmt.Fprintf(&b, "Figure 5 [%s, dsize=%d (%d bytes)]\n", d.Sys.Name, d.DSize, elem)
	b.WriteString(report.RenderHeatmap(d.BandMap,
		fmt.Sprintf("best band (y=dim, x=tsize), %s", d.Sys.Name)))
	if d.Sys.MaxGPUs() >= 2 {
		b.WriteString(report.RenderHeatmap(d.HaloMap,
			fmt.Sprintf("best halo (y=dim, x=tsize), %s", d.Sys.Name)))
	}
	return b.String()
}

// ---- Figure 6: best points vs simple schemes ----

// Fig6Row is one system's average speedups over the serial baseline.
type Fig6Row struct {
	Sys hw.System
	// Best, CPUOnly and GPUOnly are mean speedups of, respectively, the
	// exhaustive optimum, the best all-CPU configuration and the full
	// single-GPU offload.
	Best, CPUOnly, GPUOnly float64
	// MaxBest is the largest per-instance optimum speedup (the paper's
	// "maximum of 20x").
	MaxBest float64
}

// Fig6 computes the baseline comparison for every configured system.
func (c *Context) Fig6() ([]Fig6Row, error) {
	var rows []Fig6Row
	for _, sys := range c.Cfg.Systems {
		sr, err := c.Search(sys)
		if err != nil {
			return nil, err
		}
		row := Fig6Row{Sys: sys}
		var n int
		for i := range sr.Instances {
			ir := &sr.Instances[i]
			best, ok := ir.Best()
			if !ok {
				continue
			}
			cpuBest := 0.0
			for _, p := range ir.Points {
				if p.Censored || p.Par.Band != -1 {
					continue
				}
				if sp := ir.SerialNs / p.RTimeNs; sp > cpuBest {
					cpuBest = sp
				}
			}
			gpuRes, err := engine.Estimate(sys, ir.Inst, engine.GPUOnlyParamsFor(ir.Inst), engine.Options{})
			if err != nil {
				return nil, err
			}
			bestSp := ir.SerialNs / best.RTimeNs
			row.Best += bestSp
			row.CPUOnly += cpuBest
			row.GPUOnly += ir.SerialNs / gpuRes.RTimeNs
			if bestSp > row.MaxBest {
				row.MaxBest = bestSp
			}
			n++
		}
		if n > 0 {
			row.Best /= float64(n)
			row.CPUOnly /= float64(n)
			row.GPUOnly /= float64(n)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderFig6 prints the comparison bars.
func RenderFig6(rows []Fig6Row) string {
	var b strings.Builder
	b.WriteString("Figure 6: average speedup of exhaustive best over baselines\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "\n%s (max best %.1fx)\n", r.Sys.Name, r.MaxBest)
		b.WriteString(report.Bar(
			[]string{"serial", "parallel CPU", "GPU only", "best (exhaustive)"},
			[]float64{1, r.CPUOnly, r.GPUOnly, r.Best}, "x", 40))
	}
	return b.String()
}
