package core

import (
	"fmt"
	"math"

	"repro/internal/hw"
	"repro/internal/ml"
	"repro/internal/plan"
)

// TrainOptions configure training-set construction and model fitting.
type TrainOptions struct {
	// Stride regularly samples every Stride-th dim and tsize value for
	// the training subset (default 2), as in Section 3.1.2. The
	// cross-validation folds are drawn from the points of the sampled
	// instances; the instances between the samples are never read.
	Stride int
	// TopK takes the best K uncensored points per sampled instance
	// (default 5, the paper's "best five performance points").
	TopK int
	// QualityWindow drops top-K points slower than the optimum by more
	// than this factor (default 1.5), so sparse configuration classes
	// cannot inject bad decisions into the training set.
	QualityWindow float64
	// SpeedupGate labels an instance "exploit parallelism" for the SVM
	// when the best point beats serial by at least this factor
	// (default 1.05).
	SpeedupGate float64
	// CVFolds is the cross-validation fold count (default 5).
	CVFolds int
	// AccuracyTarget is the paper's model acceptance gate (default 0.9).
	AccuracyTarget float64
	// Seed drives every stochastic component (default 1).
	Seed int64
}

// DefaultTrainOptions returns the standard configuration.
func DefaultTrainOptions() TrainOptions {
	return TrainOptions{Stride: 2, TopK: 5, QualityWindow: 1.5, SpeedupGate: 1.05,
		CVFolds: 5, AccuracyTarget: 0.9, Seed: 1}
}

func (o TrainOptions) withDefaults() TrainOptions {
	d := DefaultTrainOptions()
	if o.Stride <= 0 {
		o.Stride = d.Stride
	}
	if o.TopK <= 0 {
		o.TopK = d.TopK
	}
	if o.QualityWindow <= 1 {
		o.QualityWindow = d.QualityWindow
	}
	if o.SpeedupGate <= 0 {
		o.SpeedupGate = d.SpeedupGate
	}
	if o.CVFolds <= 1 {
		o.CVFolds = d.CVFolds
	}
	if o.AccuracyTarget <= 0 {
		o.AccuracyTarget = d.AccuracyTarget
	}
	if o.Seed == 0 {
		o.Seed = d.Seed
	}
	return o
}

// Training holds the per-target datasets distilled from an exhaustive
// search, following the paper's feature choices: cpu-tile from input
// parameters only; band additionally from gpu-tile; halo additionally from
// cpu-tile and band (Figure 9); gpu-tile as a binary target; and the
// SVM's parallelism label per instance. The input parameters are read on
// the log scale of dim and tsize (features).
//
// Band and halo are taught as fractions of their instance's maximum
// (plan.Instance.MaxUsefulBand and plan.MaxHaloFor), the same spelling
// Space uses, so a decision learned at one dim carries over to another;
// -1 (all-CPU, single GPU) stays -1.
type Training struct {
	Parallel *ml.Dataset // features (log dim, log tsize, dsize), label in {-1, +1}
	CPUTile  *ml.Dataset // features -> cpu-tile
	GPUTile  *ml.Dataset // features -> 0 (GPU unused) or tile >= 1
	Band     *ml.Dataset // (features, gputile) -> band fraction
	Halo     *ml.Dataset // (features, cputile, band fraction) -> halo fraction
}

// features writes the inputs every model reads into x[:3] and returns
// that slice: log(dim), log(tsize) and dsize. Tsize spans 0.4-12,000
// across the app catalog and the training grid, and runtimes scale with
// dim and tsize multiplicatively, so a linear SVM or M5 leaf fitted on
// the log scale carries to granularities the grid does not sample.
func features(x []float64, inst plan.Instance) []float64 {
	x[0], x[1], x[2] = math.Log(float64(inst.MaxSide())), math.Log(inst.TSize), float64(inst.DSize)
	return x[:3]
}

// gridSampler is the regular sampling of a space's dim x tsize grid that
// selects the training instances.
type gridSampler struct {
	dimPos map[int]int
	tsPos  map[float64]int
	stride int
}

func newGridSampler(space Space, opts TrainOptions) gridSampler {
	return gridSampler{dimPos: indexOfInts(space.Dims), tsPos: indexOfFloats(space.TSizes),
		stride: opts.withDefaults().Stride}
}

// sampled reports whether training reads inst: a square instance whose
// dim and tsize indices are both multiples of the stride. onGrid is false
// for a square instance whose dim or tsize the space does not list.
func (g gridSampler) sampled(inst plan.Instance) (sampled, onGrid bool) {
	if !inst.Square() {
		// Training follows the paper's square synthetic grid; a space may
		// additionally hold rectangular evaluation instances, which the
		// regular dim x tsize sampling cannot place.
		return false, true
	}
	di, ok1 := g.dimPos[inst.Dim]
	ti, ok2 := g.tsPos[inst.TSize]
	if !ok1 || !ok2 {
		return false, false
	}
	return di%g.stride == 0 && ti%g.stride == 0, true
}

// TrainingInstances lists, in Space.Instances order, the instances of
// space that BuildTraining samples under opts (defaults applied): the
// only instances whose search results training reads.
func TrainingInstances(space Space, opts TrainOptions) []plan.Instance {
	g := newGridSampler(space, opts)
	var out []plan.Instance
	for _, inst := range space.Instances() {
		if ok, _ := g.sampled(inst); ok {
			out = append(out, inst)
		}
	}
	return out
}

// TrainFromSpace trains a tuner for sys from a search of only the
// instances of space that training samples (TrainingInstances). The
// tuner is the one Train builds from a full Exhaustive search of the
// space, for a fraction of the search.
func TrainFromSpace(sys hw.System, space Space, opts TrainOptions) (*Tuner, error) {
	sr, err := search(sys, space, TrainingInstances(space, opts), SearchOptions{})
	if err != nil {
		return nil, err
	}
	return Train(sr, opts)
}

// BuildTraining distills training sets from a search result by regular
// sampling of instances and selection of the top-K points of each.
func BuildTraining(sr *SearchResult, opts TrainOptions) (*Training, error) {
	opts = opts.withDefaults()
	tr := &Training{
		Parallel: ml.NewDataset("log_dim", "log_tsize", "dsize"),
		CPUTile:  ml.NewDataset("log_dim", "log_tsize", "dsize"),
		GPUTile:  ml.NewDataset("log_dim", "log_tsize", "dsize"),
		Band:     ml.NewDataset("log_dim", "log_tsize", "dsize", "gputile"),
		Halo:     ml.NewDataset("log_dim", "log_tsize", "dsize", "cputile", "band_frac"),
	}
	g := newGridSampler(sr.Space, opts)
	for i := range sr.Instances {
		ir := &sr.Instances[i]
		sampled, onGrid := g.sampled(ir.Inst)
		if !onGrid {
			// A search read back from CSV can hold instances its space
			// does not list.
			return nil, fmt.Errorf("core: instance %v not on the space grid", ir.Inst)
		}
		if !sampled {
			continue
		}
		x := features(make([]float64, 3), ir.Inst)

		best, found := ir.Best()
		label := -1.0
		if found && ir.SerialNs/best.RTimeNs >= opts.SpeedupGate {
			label = 1
		}
		tr.Parallel.Add(x, label)
		if !found || label < 0 {
			// No useful parallel points: nothing to teach the parameter
			// models for this instance.
			continue
		}
		for _, p := range ir.TopK(opts.TopK) {
			// Only genuinely good points teach the models: a "top-5" point
			// far behind the optimum (possible when few configurations of
			// its kind exist) would inject bad decisions.
			if p.RTimeNs > best.RTimeNs*opts.QualityWindow {
				continue
			}
			tr.CPUTile.Add(x, float64(p.Par.CPUTile))
			// The paper's gpu-tile target is overloaded: 0 means the GPU
			// is not employed at all; >= 1 is the work-group tile of a
			// GPU-using configuration (Section 4.1.5).
			gt := 0.0
			if p.Par.Band >= 0 {
				gt = float64(p.Par.GPUTile)
			}
			tr.GPUTile.Add(x, gt)
			bandFrac := fracOf(p.Par.Band, ir.Inst.MaxUsefulBand())
			tr.Band.Add(append(append([]float64{}, x...), gt), bandFrac)
			tr.Halo.Add(append(append([]float64{}, x...), float64(p.Par.CPUTile), bandFrac),
				fracOf(p.Par.Halo, plan.MaxHaloFor(ir.Inst, p.Par.Band)))
		}
	}
	if tr.Parallel.Len() == 0 {
		return nil, fmt.Errorf("core: sampling produced no training instances")
	}
	return tr, nil
}

func indexOfInts(xs []int) map[int]int {
	m := make(map[int]int, len(xs))
	for i, x := range xs {
		m[x] = i
	}
	return m
}

func indexOfFloats(xs []float64) map[float64]int {
	m := make(map[float64]int, len(xs))
	for i, x := range xs {
		m[x] = i
	}
	return m
}
