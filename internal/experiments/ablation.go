package experiments

// Ablation studies for the design choices the paper (and this
// reproduction) make: whether GPU tiling ever pays, and how much halo
// tuning is worth over the naive swap-every-diagonal scheme.

import (
	"fmt"
	"strings"

	"repro/internal/hw"
	"repro/internal/plan"
	"repro/internal/report"
)

// AblationRow compares a restricted search against the full one.
type AblationRow struct {
	Inst plan.Instance
	// FullNs is the optimum of the unrestricted space; RestrictedNs of
	// the ablated space.
	FullNs       float64
	RestrictedNs float64
}

// Penalty returns how much slower the ablated optimum is.
func (r AblationRow) Penalty() float64 {
	if r.FullNs <= 0 {
		return 0
	}
	return r.RestrictedNs / r.FullNs
}

// AblateGPUTile measures the cost of forcing gpu-tile=1 everywhere. The
// paper found tiling "was not beneficial in our search space", so the
// penalty should be ~1.0 — this ablation verifies that the reproduction
// agrees rather than assuming it.
func (c *Context) AblateGPUTile(sys hw.System) ([]AblationRow, error) {
	return c.ablate(sys, func(p plan.Params) bool { return p.GPUTile == 1 })
}

// AblateHalo measures the cost of forcing halo<=0 (single GPU or
// swap-every-diagonal): how much performance the halo tunable buys.
func (c *Context) AblateHalo(sys hw.System) ([]AblationRow, error) {
	return c.ablate(sys, func(p plan.Params) bool { return p.Halo <= 0 })
}

// ablate recomputes per-instance optima under a configuration filter.
func (c *Context) ablate(sys hw.System, keep func(plan.Params) bool) ([]AblationRow, error) {
	sr, err := c.Search(sys)
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	for i := range sr.Instances {
		ir := &sr.Instances[i]
		full, ok := ir.Best()
		if !ok {
			continue
		}
		var restricted float64
		found := false
		for _, p := range ir.Points {
			if p.Censored || !keep(p.Par) {
				continue
			}
			if !found || p.RTimeNs < restricted {
				restricted = p.RTimeNs
				found = true
			}
		}
		if !found {
			continue
		}
		rows = append(rows, AblationRow{Inst: ir.Inst, FullNs: full.RTimeNs, RestrictedNs: restricted})
	}
	return rows, nil
}

// MeanPenalty averages the ablation penalties.
func MeanPenalty(rows []AblationRow) float64 {
	if len(rows) == 0 {
		return 0
	}
	var s float64
	for _, r := range rows {
		s += r.Penalty()
	}
	return s / float64(len(rows))
}

// MaxPenalty returns the worst-case ablation penalty.
func MaxPenalty(rows []AblationRow) float64 {
	worst := 0.0
	for _, r := range rows {
		if p := r.Penalty(); p > worst {
			worst = p
		}
	}
	return worst
}

// RenderAblation prints an ablation summary.
func RenderAblation(name string, sys hw.System, rows []AblationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation %s on %s: mean penalty %.3fx, max %.3fx over %d instances\n",
		name, sys.Name, MeanPenalty(rows), MaxPenalty(rows), len(rows))
	t := report.NewTable("dim", "tsize", "dsize", "full(s)", "restricted(s)", "penalty")
	for _, r := range rows {
		if r.Penalty() < 1.02 {
			continue // only print instances where the ablation bites
		}
		t.Add(r.Inst.Dim, r.Inst.TSize, r.Inst.DSize, r.FullNs/1e9, r.RestrictedNs/1e9, r.Penalty())
	}
	b.WriteString(t.String())
	return b.String()
}
