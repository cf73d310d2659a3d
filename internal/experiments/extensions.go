package experiments

// Extensions beyond the paper's evaluation, implementing its stated
// future work: scaling past two GPUs and tuning at runtime.

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/hw"
	"repro/internal/plan"
	"repro/internal/report"
)

// ScalingRow is the modeled speedup of one device count.
type ScalingRow struct {
	GPUs    int
	RTimeNs float64
	Speedup float64 // over the serial baseline
}

// ExtGPUScaling runs the multi-GPU scaling study: a coarse-grained large
// instance on the i7-2600K widened to maxGPUs devices, swept from CPU-only
// through every device count.
func ExtGPUScaling(maxGPUs int) ([]ScalingRow, error) {
	if maxGPUs < 2 {
		maxGPUs = 4
	}
	sys := hw.WithGPUCount(hw.I7_2600K(), maxGPUs)
	inst := plan.Instance{Dim: 2700, TSize: 12000, DSize: 1}
	serial := engine.SerialNs(sys, inst)
	band := inst.Dim - 100
	halo := 24

	var rows []ScalingRow
	cpu, err := engine.Estimate(sys, inst, engine.CPUOnlyParams(8), engine.Options{})
	if err != nil {
		return nil, err
	}
	rows = append(rows, ScalingRow{GPUs: 0, RTimeNs: cpu.RTimeNs, Speedup: serial / cpu.RTimeNs})

	one, err := engine.Estimate(sys, inst,
		plan.Params{CPUTile: 8, Band: band, GPUTile: 1, Halo: -1}, engine.Options{})
	if err != nil {
		return nil, err
	}
	rows = append(rows, ScalingRow{GPUs: 1, RTimeNs: one.RTimeNs, Speedup: serial / one.RTimeNs})

	par := plan.Params{CPUTile: 8, Band: band, GPUTile: 1, Halo: halo}
	for n := 2; n <= maxGPUs; n++ {
		res, err := engine.Estimate(sys, inst, par, engine.Options{GPUs: n})
		if err != nil {
			return nil, err
		}
		rows = append(rows, ScalingRow{GPUs: n, RTimeNs: res.RTimeNs, Speedup: serial / res.RTimeNs})
	}
	return rows, nil
}

// RenderScaling prints the scaling study.
func RenderScaling(rows []ScalingRow) string {
	var b strings.Builder
	b.WriteString("Extension: multi-GPU scaling (dim=2700 tsize=12000 dsize=1, i7-2600K widened)\n")
	t := report.NewTable("gpus", "rtime(s)", "speedup over serial")
	for _, r := range rows {
		t.Add(r.GPUs, r.RTimeNs/1e9, r.Speedup)
	}
	b.WriteString(t.String())
	return b.String()
}

// OnlineRow compares offline and runtime-refined tuning on one instance.
type OnlineRow struct {
	Inst      plan.Instance
	OfflineNs float64
	OnlineNs  float64
	Probes    int
	BestNs    float64 // exhaustive optimum, for efficiency accounting
}

// ExtOnline evaluates the runtime tuner against the offline tuner on the
// Nash instance grid of the context.
func (c *Context) ExtOnline(sys hw.System) ([]OnlineRow, error) {
	t, err := c.Tuner(sys)
	if err != nil {
		return nil, err
	}
	online := core.NewOnlineTuner(t)
	evals, err := core.Evaluate(t, c.Cfg.Space, c.NashInstances())
	if err != nil {
		return nil, err
	}
	var rows []OnlineRow
	for _, e := range evals {
		_, st, err := online.Refine(e.Inst)
		if err != nil {
			return nil, err
		}
		rows = append(rows, OnlineRow{
			Inst: e.Inst, OfflineNs: e.AutoNs, OnlineNs: st.FinalNs,
			Probes: st.Probes, BestNs: e.BestNs,
		})
	}
	return rows, nil
}

// RenderOnline prints the comparison.
func RenderOnline(sys hw.System, rows []OnlineRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension: runtime tuning on %s (Nash)\n", sys.Name)
	t := report.NewTable("dim", "tsize", "offline(s)", "online(s)", "probes", "exhaustive(s)")
	for _, r := range rows {
		t.Add(r.Inst.Dim, r.Inst.TSize, r.OfflineNs/1e9, r.OnlineNs/1e9, r.Probes, r.BestNs/1e9)
	}
	b.WriteString(t.String())
	return b.String()
}
