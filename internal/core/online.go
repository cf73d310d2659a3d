package core

import (
	"context"
	"fmt"

	"repro/internal/engine"
	"repro/internal/plan"
)

// OnlineTuner implements the paper's future-work item of upgrading the
// offline auto-tuner to tune at runtime: deployment starts from the
// offline model's prediction and spends a small budget of measured probe
// runs hill-climbing through neighbouring configurations. Probes are
// "measured" on the modeled system (the stand-in for timing a real run).
type OnlineTuner struct {
	Base Predictor
}

// refineBudget caps the probe measurements of one refinement.
const refineBudget = 12

// RefineStats reports what the online phase did.
type RefineStats struct {
	Probes  int
	StartNs float64
	FinalNs float64
	Moves   int
}

// Improvement returns the speedup of the refined configuration over the
// starting one.
func (s RefineStats) Improvement() float64 {
	if s.FinalNs <= 0 {
		return 0
	}
	return s.StartNs / s.FinalNs
}

// NewOnlineTuner wraps an offline predictor.
func NewOnlineTuner(base Predictor) *OnlineTuner {
	return &OnlineTuner{Base: base}
}

// Refine starts from the offline served decision (PredictTimed) and
// then refines at runtime.
func (o *OnlineTuner) Refine(inst plan.Instance) (Prediction, RefineStats, error) {
	pred, _, serialNs, err := o.Base.PredictTimed(inst)
	if err != nil {
		return pred, RefineStats{}, err
	}
	return o.RefineDecisionContext(context.Background(), inst, pred, serialNs)
}

// RefineDecisionContext refines an explicit starting decision — e.g. a
// plan-cache entry — without re-running the offline predict: a serial
// decision probes the parallel alternative once against the baseline
// (the gate may have been wrong); a parallel decision hill-climbs from
// its params and falls back to the baseline if even the refined
// configuration loses to it. serialNs is the known sequential baseline
// in nanoseconds (<= 0 recomputes it from the model).
func (o *OnlineTuner) RefineDecisionContext(ctx context.Context, inst plan.Instance, dec Prediction, serialNs float64) (Prediction, RefineStats, error) {
	if serialNs <= 0 {
		serialNs = engine.SerialNs(o.Base.System(), inst)
	}
	if dec.Serial {
		if err := ctx.Err(); err != nil {
			return dec, RefineStats{}, err
		}
		alt := engine.CPUOnlyParams(clampTile(engine.SerialTile, inst.MaxSide()))
		res, err := engine.Estimate(o.Base.System(), inst, alt, engine.Options{})
		if err != nil {
			return dec, RefineStats{}, err
		}
		st := RefineStats{Probes: 1, StartNs: serialNs, FinalNs: serialNs}
		if res.RTimeNs < serialNs {
			st.FinalNs = res.RTimeNs
			st.Moves = 1
			return Prediction{Par: alt}, st, nil
		}
		return dec, st, nil
	}
	refined, st, err := o.refineFrom(ctx, inst, dec.Par, refineBudget)
	if err != nil {
		return dec, st, err
	}
	// A runtime tuner can always fall back to the sequential baseline; if
	// even the refined parallel configuration loses to it, run serial.
	if serialNs < st.FinalNs {
		st.FinalNs = serialNs
		return Prediction{Serial: true, Par: engine.CPUOnlyParams(clampTile(engine.SerialTile, inst.MaxSide()))}, st, nil
	}
	return refined, st, nil
}

// refineFrom hill-climbs from an explicit starting configuration: each
// round measures the neighbours of the incumbent and moves to the best
// strict improvement, until budget probes are spent or a local optimum
// is reached. ctx is checked before every probe measurement, and once
// it is done the incumbent (best so far) is returned with the stats
// accumulated up to that point and ctx's error.
func (o *OnlineTuner) refineFrom(ctx context.Context, inst plan.Instance, start plan.Params, budget int) (Prediction, RefineStats, error) {
	sys := o.Base.System()
	measure := func(p plan.Params) (float64, bool) {
		if err := plan.Check(inst, p); err != nil {
			return 0, false
		}
		if p.GPUCount() > sys.MaxGPUs() {
			return 0, false
		}
		res, err := engine.Estimate(sys, inst, p, engine.Options{})
		if err != nil {
			return 0, false
		}
		return res.RTimeNs, true
	}

	if err := ctx.Err(); err != nil {
		return Prediction{Par: start.Normalize()}, RefineStats{}, err
	}
	cur := start.Normalize()
	curNs, ok := measure(cur)
	if !ok {
		return Prediction{}, RefineStats{}, fmt.Errorf("core: unmeasurable start %v for %v", start, inst)
	}
	st := RefineStats{Probes: 1, StartNs: curNs, FinalNs: curNs}

	for st.Probes < budget {
		improved := false
		for _, cand := range neighbours(inst, cur) {
			if st.Probes >= budget {
				break
			}
			if err := ctx.Err(); err != nil {
				st.FinalNs = curNs
				return Prediction{Par: cur}, st, err
			}
			ns, ok := measure(cand)
			if !ok {
				continue
			}
			st.Probes++
			if ns < curNs {
				cur, curNs = cand, ns
				improved = true
				st.Moves++
			}
		}
		if !improved {
			break
		}
	}
	st.FinalNs = curNs
	return Prediction{Par: cur}, st, nil
}

// neighbours generates the local moves of the hill climber: scaling the
// band (scaleBand), shifting the halo, swapping cpu-tile to adjacent
// grid values, and toggling the GPU on or off entirely.
func neighbours(inst plan.Instance, p plan.Params) []plan.Params {
	var out []plan.Params
	add := func(q plan.Params) { out = append(out, q.Normalize()) }

	// cpu-tile moves along the Table 3 grid, and above it back to the
	// grid's top and on to the clamped doubled tile.
	tiles := []int{1, 2, 4, 8, 10, 16}
	if top := tiles[len(tiles)-1]; p.CPUTile > top {
		for _, n := range []int{top, clampTile(2*p.CPUTile, inst.MaxSide())} {
			if n != p.CPUTile {
				q := p
				q.CPUTile = n
				add(q)
			}
		}
	}
	for i, t := range tiles {
		if t == p.CPUTile || (p.CPUTile < t && (i == 0 || tiles[i-1] < p.CPUTile)) {
			for _, n := range []int{i - 1, i + 1} {
				if n >= 0 && n < len(tiles) && tiles[n] != p.CPUTile && tiles[n] <= inst.MaxSide() {
					q := p
					q.CPUTile = tiles[n]
					add(q)
				}
			}
			break
		}
	}

	if p.Band < 0 {
		// Try switching the GPU on with a mid-sized band.
		q := p
		q.Band = inst.MaxUsefulBand() / 2
		q.Halo = -1
		add(q)
		return out
	}

	for _, f := range bandSteps {
		add(scaleBand(inst, p, f))
	}
	// GPU off.
	add(plan.Params{CPUTile: p.CPUTile, Band: -1, GPUTile: 1, Halo: -1})

	// Halo moves (dual GPU only).
	if p.Halo >= 0 {
		max := plan.MaxHaloFor(inst, p.Band)
		for _, dh := range []int{-4, -1, 1, 4} {
			nh := p.Halo + dh
			if nh >= -1 && nh <= max {
				q := p
				q.Halo = nh
				add(q)
			}
		}
	} else {
		// Try the second GPU.
		if max := plan.MaxHaloFor(inst, p.Band); max >= 0 {
			q := p
			q.Halo = max / 2
			add(q)
		}
	}
	return out
}
