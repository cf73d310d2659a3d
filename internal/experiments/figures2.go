package experiments

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/kernels"
	"repro/internal/plan"
	"repro/internal/report"
	"repro/internal/stats"
)

// ---- Figure 7: best exhaustive runtime vs average configuration ----

// Fig7Row is one dim-tsize group of the average-case comparison.
type Fig7Row struct {
	Dim    int
	TSize  float64
	DSize  int
	BerSec float64 // best exhaustive runtime
	AvgSec float64 // mean over all uncensored configurations
	SDSec  float64
	// Excluded counts configurations censored by the 90s threshold
	// (the paper's "points excluded from the average").
	Excluded int
}

// Fig7 computes the average-case comparison for one system and dsize.
func (c *Context) Fig7(sys hw.System, dsize int) ([]Fig7Row, error) {
	sr, err := c.Search(sys)
	if err != nil {
		return nil, err
	}
	var rows []Fig7Row
	for i := range sr.Instances {
		ir := &sr.Instances[i]
		if ir.Inst.DSize != dsize {
			continue
		}
		xs := ir.Uncensored()
		row := Fig7Row{Dim: ir.Inst.Dim, TSize: ir.Inst.TSize, DSize: dsize,
			Excluded: len(ir.Points) - len(xs)}
		if best, ok := ir.Best(); ok {
			row.BerSec = best.RTimeNs / 1e9
		}
		if len(xs) > 0 {
			row.AvgSec = stats.Mean(xs) / 1e9
			row.SDSec = stats.StdDev(xs) / 1e9
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderFig7 prints the group table.
func RenderFig7(sys hw.System, dsize int, rows []Fig7Row) string {
	t := report.NewTable("dim", "tsize", "ber(s)", "avg(s)", "sd(s)", "avg/ber", "excluded")
	for _, r := range rows {
		ratio := 0.0
		if r.BerSec > 0 {
			ratio = r.AvgSec / r.BerSec
		}
		t.Add(r.Dim, r.TSize, r.BerSec, r.AvgSec, r.SDSec, ratio, r.Excluded)
	}
	return fmt.Sprintf("Figure 7 [%s, dsize=%d]: best vs average configuration\n%s",
		sys.Name, dsize, t.String())
}

// ---- Figure 8: sensitivity violins ----

// Fig8Violin is the configuration-runtime distribution of one instance.
type Fig8Violin struct {
	Inst plan.Instance
	V    stats.Violin
	// FlatBase is the share of configurations within 10% of the optimum —
	// large for GPU-friendly instances ("the flat base of each violin").
	FlatBase float64
}

// Fig8 computes violins for the paper's sample instances (dim 700 and
// 2700, dsize 1 and 5) on the given system (the paper uses i7-2600K).
func (c *Context) Fig8(sys hw.System, dims []int, dsizes []int, tsizes []float64) ([]Fig8Violin, error) {
	sr, err := c.Search(sys)
	if err != nil {
		return nil, err
	}
	var out []Fig8Violin
	for _, dim := range dims {
		for _, ds := range dsizes {
			for _, ts := range tsizes {
				ir, ok := sr.For(plan.Instance{Dim: dim, TSize: ts, DSize: ds})
				if !ok {
					continue
				}
				xs := ir.Uncensored()
				if len(xs) == 0 {
					continue
				}
				sec := make([]float64, len(xs))
				for i, x := range xs {
					sec[i] = x / 1e9
				}
				out = append(out, Fig8Violin{
					Inst:     ir.Inst,
					V:        stats.NewViolin(sec, 24),
					FlatBase: stats.FlatBaseShare(sec, 0.10),
				})
			}
		}
	}
	return out, nil
}

// RenderFig8 prints the violins.
func RenderFig8(sys hw.System, vs []Fig8Violin) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8 [%s]: dispersion of all configurations\n", sys.Name)
	for _, v := range vs {
		b.WriteString(report.RenderViolin(v.V,
			fmt.Sprintf("\n%v  flat-base=%.0f%%", v.Inst, v.FlatBase*100), 40))
	}
	return b.String()
}

// ---- Figure 9: the learned model ----

// Fig9 trains the tuner for sys and renders the halo model tree with its
// leaf linear models, as in the paper's pruned M5 tree figure, followed
// by the tuner's accuracy report. The paper's halo tree also splits on
// cpu-tile and band; this one reads the instance features only
// (core.Training).
func (c *Context) Fig9(sys hw.System) (string, error) {
	t, err := c.Tuner(sys)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 9 [%s]: M5 pruned model tree predicting halo as a fraction of the largest halo\n\n", sys.Name)
	b.WriteString(t.Halo.Render("halo"))
	fmt.Fprintf(&b, "\n%s\n", t.Report)
	return b.String(), nil
}

// ---- Figures 10 and 11: autotuning the real applications ----

// NashInstances derives the Figure 10/11 instance grid from the
// configured dims and granularity parameters, using the paper's mapping
// of one Nash round to tsize=750 and dsize=4.
func (c *Context) NashInstances() []plan.Instance {
	var out []plan.Instance
	for _, dim := range c.Cfg.NashDims {
		for _, rounds := range c.Cfg.NashRounds {
			k := kernels.NewNash(rounds)
			out = append(out, plan.Instance{Dim: dim, TSize: k.TSize(), DSize: k.DSize()})
		}
	}
	return out
}

// SeqInstances derives the sequence-comparison instances (tsize=0.5,
// dsize=0).
func (c *Context) SeqInstances() []plan.Instance {
	var out []plan.Instance
	for _, dim := range c.Cfg.SeqDims {
		k := kernels.NewSeqCompare()
		out = append(out, plan.Instance{Dim: dim, TSize: k.TSize(), DSize: k.DSize()})
	}
	return out
}

// Fig10Row summarizes autotuning quality for one system.
type Fig10Row struct {
	Sys hw.System
	// ExhaustiveSpeedup and AutoSpeedup are mean speedups over serial for
	// the Nash application.
	ExhaustiveSpeedup float64
	AutoSpeedup       float64
	// Efficiency is AutoSpeedup/ExhaustiveSpeedup; the paper reports 98%
	// on average, with super-optimal (>1) results on the i3-540.
	Efficiency float64
	Points     []core.EvalPoint
}

// Fig10 evaluates the trained tuners on the Nash application.
func (c *Context) Fig10() ([]Fig10Row, error) {
	insts := c.NashInstances()
	var rows []Fig10Row
	for _, sys := range c.Cfg.Systems {
		t, err := c.Tuner(sys)
		if err != nil {
			return nil, err
		}
		points, err := core.Evaluate(t, c.Cfg.Space, insts)
		if err != nil {
			return nil, err
		}
		row := Fig10Row{Sys: sys, Points: points}
		n := 0
		for _, e := range points {
			if e.AllCensored {
				continue
			}
			row.ExhaustiveSpeedup += e.BestSpeedup()
			row.AutoSpeedup += e.AutoSpeedup()
			n++
		}
		if n > 0 {
			row.ExhaustiveSpeedup /= float64(n)
			row.AutoSpeedup /= float64(n)
		}
		if row.ExhaustiveSpeedup > 0 {
			row.Efficiency = row.AutoSpeedup / row.ExhaustiveSpeedup
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderFig10 prints the speedup comparison.
func RenderFig10(rows []Fig10Row) string {
	var b strings.Builder
	b.WriteString("Figure 10 [Nash]: autotuned speedup vs exhaustive search\n")
	t := report.NewTable("system", "exhaustive(x)", "autotuned(x)", "efficiency")
	for _, r := range rows {
		t.Add(r.Sys.Name, r.ExhaustiveSpeedup, r.AutoSpeedup,
			fmt.Sprintf("%.1f%%", r.Efficiency*100))
	}
	b.WriteString(t.String())
	return b.String()
}

// RenderFig11 prints the per-group runtime detail: exhaustive-best bars
// against the autotuned line.
func RenderFig11(rows []Fig10Row) string {
	var b strings.Builder
	b.WriteString("Figure 11 [Nash]: runtime of exhaustive best (bar) vs autotuned (line)\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "\n%s\n", r.Sys.Name)
		t := report.NewTable("dim", "tsize", "ber(s)", "auto(s)", "auto/ber")
		for _, e := range r.Points {
			if e.AllCensored {
				t.Add(e.Inst.Dim, e.Inst.TSize, "censored", e.AutoNs/1e9, "-")
				continue
			}
			t.Add(e.Inst.Dim, e.Inst.TSize, e.BestNs/1e9, e.AutoNs/1e9, e.AutoNs/e.BestNs)
		}
		b.WriteString(t.String())
	}
	return b.String()
}

// ---- Smith-Waterman deployment check ----

// SeqResult records the tuner's decision on sequence comparison.
type SeqResult struct {
	Sys hw.System
	// AllCPU reports whether every instance was kept off the GPU, the
	// paper's "band prediction 100% accurate, i.e. do everything on the
	// CPU".
	AllCPU bool
	Preds  []core.Prediction
}

// SeqCompare evaluates the tuner's deployment on the fine-grained
// sequence-comparison application.
func (c *Context) SeqCompare() ([]SeqResult, error) {
	insts := c.SeqInstances()
	var out []SeqResult
	for _, sys := range c.Cfg.Systems {
		t, err := c.Tuner(sys)
		if err != nil {
			return nil, err
		}
		res := SeqResult{Sys: sys, AllCPU: true}
		for _, inst := range insts {
			pred, _, _, err := t.PredictTimed(inst)
			if err != nil {
				return nil, err
			}
			res.Preds = append(res.Preds, pred)
			if !pred.Serial && pred.Par.Band >= 0 {
				res.AllCPU = false
			}
		}
		out = append(out, res)
	}
	return out, nil
}

// ---- Headline numbers ----

// Headline aggregates the paper's summary claims.
type Headline struct {
	// MaxSpeedup and AvgSpeedup are over the serial baseline at the
	// exhaustive optima (paper: max 20x, average 7.8x).
	MaxSpeedup float64
	AvgSpeedup float64
	// TunerEfficiency is the mean autotuned fraction of exhaustive
	// performance on Nash (paper: 98%).
	TunerEfficiency float64
	// SeqAllCPU reports whether sequence comparison was kept on the CPU
	// everywhere.
	SeqAllCPU bool
}

// ComputeHeadline runs Figures 6 and 10 plus the sequence-comparison
// deployment and aggregates the headline numbers.
func (c *Context) ComputeHeadline() (Headline, error) {
	var h Headline
	fig6, err := c.Fig6()
	if err != nil {
		return h, err
	}
	var sum float64
	for _, r := range fig6 {
		sum += r.Best
		if r.MaxBest > h.MaxSpeedup {
			h.MaxSpeedup = r.MaxBest
		}
	}
	if len(fig6) > 0 {
		h.AvgSpeedup = sum / float64(len(fig6))
	}
	fig10, err := c.Fig10()
	if err != nil {
		return h, err
	}
	var eff float64
	for _, r := range fig10 {
		eff += math.Min(r.Efficiency, 1) // cap super-optimal at 1 for the average
	}
	if len(fig10) > 0 {
		h.TunerEfficiency = eff / float64(len(fig10))
	}
	seq, err := c.SeqCompare()
	if err != nil {
		return h, err
	}
	h.SeqAllCPU = true
	for _, s := range seq {
		if !s.AllCPU {
			h.SeqAllCPU = false
		}
	}
	return h, nil
}

// Render prints the headline summary.
func (h Headline) Render() string {
	return fmt.Sprintf(
		"Headline: max speedup %.1fx (paper ~20x), average %.1fx (paper 7.8x), "+
			"tuner efficiency %.0f%% (paper 98%%), seq-compare all-CPU: %v (paper: yes)\n",
		h.MaxSpeedup, h.AvgSpeedup, h.TunerEfficiency*100, h.SeqAllCPU)
}
