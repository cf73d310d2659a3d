package core

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/engine"
	"repro/internal/hw"
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
		alt := serialPlan(inst)
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
		return Prediction{Serial: true, Par: serialPlan(inst)}, st, nil
	}
	return refined, st, nil
}

// refineFrom hill-climbs (climb) from an explicit starting configuration
// over the incumbent's whole neighbourhood, the served check's ring and
// then the rest, under budget probes, the start's estimate among them.
// The GPU move of a CPU-only plan comes from the models of the *Tuner o
// wraps; another Predictor has none. ctx is checked before every probe,
// and once it is done the incumbent (best so far) is returned with the
// stats accumulated up to that point and ctx's error.
func (o *OnlineTuner) refineFrom(ctx context.Context, inst plan.Instance, start plan.Params, budget int) (Prediction, RefineStats, error) {
	sys := o.Base.System()
	t, ok := o.Base.(*Tuner)
	if !ok {
		t = &Tuner{Sys: sys}
	}
	inc := incumbent{par: start.Normalize()}
	if err := ctx.Err(); err != nil {
		return Prediction{Par: inc.par}, RefineStats{}, err
	}
	res, err := engine.Estimate(sys, inst, inc.par, engine.Options{})
	if err != nil {
		return Prediction{}, RefineStats{}, fmt.Errorf("core: unmeasurable start %v for %v: %w", start, inst, err)
	}
	inc.ns = res.RTimeNs
	probes, moves, err := inc.climb(ctx, sys, inst, budget-1, func(p plan.Params) (moves [maxMoves]plan.Params, n int) {
		all, _ := t.neighbourhood(&moves, inst, p)
		return moves, len(all)
	})
	st := RefineStats{Probes: 1 + probes, StartNs: res.RTimeNs, FinalNs: inc.ns, Moves: moves}
	return Prediction{Par: inc.par}, st, err
}

// incumbent is the best plan of a probe loop so far, with its runtime in
// nanoseconds.
type incumbent struct {
	par plan.Params
	ns  float64
}

// climb is the one hill climb of the served check and refine: from each
// new incumbent it runs the probe loop over the first n moves that
// moves(c.par) lists, until a pass takes no move or budget probes are
// spent. The list comes back by value, so the climb allocates nothing.
// ctx is checked before each estimate. It returns the number of moves
// estimated and taken.
func (c *incumbent) climb(ctx context.Context, sys hw.System, inst plan.Instance, budget int, moves func(plan.Params) ([maxMoves]plan.Params, int)) (probes, taken int, err error) {
	for probes < budget {
		ms, m := moves(c.par)
		n, k, err := c.probe(ctx, sys, inst, ms[:min(m, budget-probes)])
		probes += n
		taken += k
		if err != nil || k == 0 {
			return probes, taken, err
		}
	}
	return probes, taken, nil
}

// probe is one pass of the probe loop: it estimates each of moves in
// order with the incumbent's runtime as ThresholdNs, and takes a move
// only when its estimate is uncensored and strictly faster. A loser
// stops at its first checkpoint past the incumbent, and a taken move's
// runtime is its uncensored estimate, bit-identical to an unbounded
// Estimate, so the moves taken are those unbounded estimates would take.
// ctx is checked before each estimate. It returns the number of moves
// estimated and taken.
func (c *incumbent) probe(ctx context.Context, sys hw.System, inst plan.Instance, moves []plan.Params) (probes, taken int, err error) {
	for _, q := range moves {
		if err := ctx.Err(); err != nil {
			return probes, taken, err
		}
		res, err := engine.Estimate(sys, inst, q, engine.Options{ThresholdNs: c.ns})
		if err != nil {
			return probes, taken, err
		}
		probes++
		if !res.Censored && res.RTimeNs < c.ns {
			c.par, c.ns = q, res.RTimeNs
			taken++
		}
	}
	return probes, taken, nil
}

// maxMoves bounds a neighbourhood: six ring moves, two cpu-tile moves
// and four halo moves.
const maxMoves = 12

// cpuTiles is the Table 3 cpu-tile grid the cpu-tile moves step along.
var cpuTiles = [...]int{1, 2, 4, 8, 10, 16}

// neighbourhood writes into buf the moves of p, the plans next to it
// that the served check (Tuner.PredictTimed) and refine (refineFrom)
// probe, in order, and returns them with the length of their first ring.
// The ring is the served check's:
//   - for a GPU plan, CPU-only at p's cpu-tile and at the clamped doubled
//     cpu-tile, then p at band ×0.8 and ×1.25 (scaleBand), then for a
//     dual-GPU plan p at halo ×2 (at least +1, at most the band's
//     maximum), then p at gpu-tile ×8 (clampGPUTile);
//   - for a CPU-only plan, CPU-only at the doubled cpu-tile, then the GPU
//     plan the models imply at gpu-tile 1 (gpuCandidate).
//
// Refine's other moves follow: p at the adjacent Table 3 cpu-tiles (at
// an off-grid tile, those of the first grid value above it; above the
// grid, its top and the doubled tile), then for a dual-GPU plan its halo
// moved by ±1 and ±4, for a single-GPU plan the second GPU at half the
// maximum halo, and for a CPU-only plan the GPU switched on at half the
// useful band. A move is dropped when it equals p or an earlier move,
// fails plan.Check, offloads no diagonal (band 0, never faster than the
// CPU-only plan at its cpu-tile) or needs more GPUs than t's system has.
func (t *Tuner) neighbourhood(buf *[maxMoves]plan.Params, inst plan.Instance, p plan.Params) ([]plan.Params, int) {
	p = p.Normalize()
	moves := buf[:0]
	add := func(q plan.Params) {
		q = q.Normalize()
		if q != p && q.Band != 0 && q.GPUCount() <= t.Sys.MaxGPUs() &&
			plan.Check(inst, q) == nil && !slices.Contains(moves, q) {
			moves = append(moves, q)
		}
	}
	ct, gpu := p.CPUTile, p.Band >= 0
	add(engine.CPUOnlyParams(ct)) // p itself when p is CPU-only
	add(engine.CPUOnlyParams(clampTile(2*ct, inst.MaxSide())))
	if gpu {
		add(scaleBand(inst, p, 0.8))
		add(scaleBand(inst, p, 1.25))
		if p.Halo >= 0 {
			q := p
			q.Halo = min(max(2*p.Halo, p.Halo+1), plan.MaxHaloFor(inst, p.Band))
			add(q)
		}
		q := p
		q.GPUTile = clampGPUTile(8 * p.GPUTile)
		add(q)
	} else if q, ok := t.gpuCandidate(inst, ct); ok {
		add(q)
	}
	ring := len(moves)

	withTile := func(n int) {
		q := p
		q.CPUTile = n
		add(q)
	}
	if i, _ := slices.BinarySearch(cpuTiles[:], ct); i == len(cpuTiles) {
		withTile(cpuTiles[i-1])
		withTile(clampTile(2*ct, inst.MaxSide()))
	} else {
		if i > 0 {
			withTile(cpuTiles[i-1])
		}
		if i+1 < len(cpuTiles) {
			withTile(cpuTiles[i+1])
		}
	}

	q := p
	switch {
	case !gpu: // the GPU on
		q.Band, q.Halo = inst.MaxUsefulBand()/2, -1
		add(q)
	case p.Halo >= 0: // the halo moves
		for _, dh := range [...]int{-4, -1, 1, 4} {
			q.Halo = p.Halo + dh
			add(q)
		}
	default: // the second GPU
		q.Halo = plan.MaxHaloFor(inst, p.Band) / 2
		add(q)
	}
	return moves, ring
}

// scaleBand is the band move: p with its band scaled by f (by at least
// one diagonal, at most inst's diagonal count) and its halo clamped to
// the new band's maximum, normalized.
func scaleBand(inst plan.Instance, p plan.Params, f float64) plan.Params {
	nb := int(float64(p.Band) * f)
	if nb == p.Band {
		nb++
	}
	p.Band = min(nb, inst.NumDiags())
	p.Halo = min(p.Halo, plan.MaxHaloFor(inst, p.Band))
	return p.Normalize()
}
