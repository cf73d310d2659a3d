package ml

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// M5Options configure model-tree induction.
type M5Options struct {
	// MinLeaf is the minimum number of examples in a leaf (default 4).
	MinLeaf int
	// SDStop stops splitting when a node's target deviation falls below
	// this fraction of the root deviation (default 0.05, as in M5).
	SDStop float64
	// MaxDepth bounds the tree (default 20).
	MaxDepth int
	// Ridge regularizes the leaf linear models (default 1e-3).
	Ridge float64
	// Smooth enables M5's leaf-to-root prediction smoothing (default on
	// via DefaultM5Options).
	Smooth bool
	// SmoothK is the smoothing constant (default 15).
	SmoothK float64
	// MaxThresholds caps candidate split points per feature (default 64).
	MaxThresholds int
}

// DefaultM5Options returns the standard configuration.
func DefaultM5Options() M5Options {
	return M5Options{MinLeaf: 4, SDStop: 0.05, MaxDepth: 20, Ridge: 1e-3,
		Smooth: true, SmoothK: 15, MaxThresholds: 64}
}

func (o M5Options) withDefaults() M5Options {
	d := DefaultM5Options()
	if o.MinLeaf <= 0 {
		o.MinLeaf = d.MinLeaf
	}
	if o.SDStop <= 0 {
		o.SDStop = d.SDStop
	}
	if o.MaxDepth <= 0 {
		o.MaxDepth = d.MaxDepth
	}
	if o.Ridge <= 0 {
		o.Ridge = d.Ridge
	}
	if o.SmoothK <= 0 {
		o.SmoothK = d.SmoothK
	}
	if o.MaxThresholds <= 0 {
		o.MaxThresholds = d.MaxThresholds
	}
	return o
}

// M5Tree is an M5 pruned model tree: internal nodes split on a feature
// threshold, leaves hold linear models (the structure of the paper's
// Figure 9), and predictions are optionally smoothed along the path.
type M5Tree struct {
	Names []string
	opts  M5Options
	root  *m5node
}

type m5node struct {
	// Split (internal nodes).
	feat   int
	thresh float64
	left   *m5node
	right  *m5node
	// Model: every node carries a linear model; after pruning, leaves use
	// theirs and internal models drive smoothing.
	model *Linear
	n     int
	leaf  bool
}

// FitM5 grows and prunes a model tree on d.
func FitM5(d *Dataset, opts M5Options) *M5Tree {
	opts = opts.withDefaults()
	t := &M5Tree{Names: d.Names, opts: opts}
	rootSD := d.YStd()
	var buf splitBuf
	t.root = t.grow(d, rootSD, 0, &buf)
	t.prune(t.root, d)
	return t
}

// CrossValidateM5 returns each configuration's k-fold cross-validated
// tolerance accuracy (CrossValidateAccuracy's criterion): every
// configuration on the same folds of d, and configurations that differ
// only in smoothing, which changes prediction, not induction, on the same
// fold trees.
func CrossValidateM5(d *Dataset, k int, seed int64, absTol, relTol float64, cfgs ...M5Options) ([]float64, error) {
	folds, err := kFolds(d, k, seed)
	if err != nil {
		return nil, err
	}
	grown := make(map[M5Options][]*M5Tree) // fold trees by induction options
	models := make([]Model, len(folds))
	accs := make([]float64, len(cfgs))
	for i, cfg := range cfgs {
		cfg = cfg.withDefaults()
		key := cfg
		key.Smooth, key.SmoothK = false, 0
		trees, ok := grown[key]
		if !ok {
			trees = make([]*M5Tree, len(folds))
			for f := range folds {
				trees[f] = FitM5(folds[f].train, cfg)
			}
			grown[key] = trees
		}
		for f, t := range trees {
			view := *t
			view.opts.Smooth, view.opts.SmoothK = cfg.Smooth, cfg.SmoothK
			models[f] = &view
		}
		accs[i] = foldAccuracy(d, folds, models, absTol, relTol)
	}
	return accs, nil
}

func (t *M5Tree) grow(d *Dataset, rootSD float64, depth int, buf *splitBuf) *m5node {
	n := &m5node{n: d.Len(), model: FitLinear(d, t.opts.Ridge)}
	if d.Len() < 2*t.opts.MinLeaf || depth >= t.opts.MaxDepth ||
		d.YStd() < t.opts.SDStop*rootSD {
		n.leaf = true
		return n
	}
	feat, thresh, ok := t.bestSplit(d, buf)
	if !ok {
		n.leaf = true
		return n
	}
	var li, ri []int
	for i, row := range d.X {
		if row[feat] <= thresh {
			li = append(li, i)
		} else {
			ri = append(ri, i)
		}
	}
	if len(li) < t.opts.MinLeaf || len(ri) < t.opts.MinLeaf {
		n.leaf = true
		return n
	}
	n.feat, n.thresh = feat, thresh
	n.left = t.grow(d.Subset(li), rootSD, depth+1, buf)
	n.right = t.grow(d.Subset(ri), rootSD, depth+1, buf)
	return n
}

// xy is one example's value of the feature being split on and its target.
type xy struct{ x, y float64 }

// splitBuf is bestSplit's scratch, reused by every feature and node of
// one fit.
type splitBuf struct {
	pairs            []xy
	prefix, prefixSq []float64
	cuts             []int
}

// bestSplit maximizes the standard deviation reduction
// SDR = sd(S) - sum |Si|/|S| * sd(Si) over features and thresholds.
func (t *M5Tree) bestSplit(d *Dataset, buf *splitBuf) (feat int, thresh float64, ok bool) {
	n := d.Len()
	bestSDR := 0.0
	baseSD := d.YStd()
	for f := 0; f < d.Features(); f++ {
		// Filled in row order every time: sort.Slice is not stable, so the
		// input order decides how equal x values are ordered, and with it
		// the prefix sums' summation order.
		ps := buf.pairs[:0]
		for i, row := range d.X {
			ps = append(ps, xy{row[f], d.Y[i]})
		}
		buf.pairs = ps
		sort.Slice(ps, func(i, j int) bool { return ps[i].x < ps[j].x })
		// Prefix sums for O(1) left/right deviation at every cut.
		var sum, sumSq float64
		prefix := append(buf.prefix[:0], 0)
		prefixSq := append(buf.prefixSq[:0], 0)
		for _, p := range ps {
			sum += p.y
			sumSq += p.y * p.y
			prefix = append(prefix, sum)
			prefixSq = append(prefixSq, sumSq)
		}
		buf.prefix, buf.prefixSq = prefix, prefixSq
		sdOf := func(lo, hi int) float64 { // examples [lo, hi)
			c := float64(hi - lo)
			if c <= 0 {
				return 0
			}
			m := (prefix[hi] - prefix[lo]) / c
			v := (prefixSq[hi]-prefixSq[lo])/c - m*m
			if v < 0 {
				v = 0
			}
			return math.Sqrt(v)
		}
		// Candidate cuts between distinct consecutive values, subsampled
		// in place: the i-th sample never lies after the i-th cut.
		cuts := buf.cuts[:0]
		for i := 1; i < n; i++ {
			if ps[i].x != ps[i-1].x {
				cuts = append(cuts, i)
			}
		}
		buf.cuts = cuts
		if len(cuts) > t.opts.MaxThresholds {
			step := float64(len(cuts)) / float64(t.opts.MaxThresholds)
			for i := 0; i < t.opts.MaxThresholds; i++ {
				cuts[i] = cuts[int(float64(i)*step)]
			}
			cuts = cuts[:t.opts.MaxThresholds]
		}
		for _, c := range cuts {
			if c < t.opts.MinLeaf || n-c < t.opts.MinLeaf {
				continue
			}
			sdr := baseSD - (float64(c)/float64(n))*sdOf(0, c) -
				(float64(n-c)/float64(n))*sdOf(c, n)
			if sdr > bestSDR {
				bestSDR = sdr
				feat = f
				thresh = (ps[c-1].x + ps[c].x) / 2
				ok = true
			}
		}
	}
	return feat, thresh, ok
}

// prune collapses subtrees whose linear model does not underperform the
// subtree, using M5's complexity-corrected absolute error
// err * (n + v) / (n - v).
func (t *M5Tree) prune(n *m5node, d *Dataset) float64 {
	modelErr := t.correctedMAE(n, d)
	if n.leaf {
		return modelErr
	}
	var li, ri []int
	for i, row := range d.X {
		if row[n.feat] <= n.thresh {
			li = append(li, i)
		} else {
			ri = append(ri, i)
		}
	}
	ld, rd := d.Subset(li), d.Subset(ri)
	subErr := (t.prune(n.left, ld)*float64(ld.Len()) +
		t.prune(n.right, rd)*float64(rd.Len())) / float64(d.Len())
	if modelErr <= subErr {
		n.leaf = true
		n.left, n.right = nil, nil
		return modelErr
	}
	return subErr
}

func (t *M5Tree) correctedMAE(n *m5node, d *Dataset) float64 {
	if d.Len() == 0 {
		return 0
	}
	var sae float64
	for i, x := range d.X {
		sae += math.Abs(n.model.Predict(x) - d.Y[i])
	}
	mae := sae / float64(d.Len())
	v := float64(nonZero(n.model.W) + 1)
	nn := float64(d.Len())
	if nn <= v {
		return mae * 10 // hopeless overfit; force pruning upwards
	}
	return mae * (nn + v) / (nn - v)
}

func nonZero(w []float64) int {
	c := 0
	for _, v := range w {
		if v != 0 {
			c++
		}
	}
	return c
}

// Predict implements Model, with smoothing along the root path when
// enabled.
func (t *M5Tree) Predict(x []float64) float64 {
	if !t.opts.Smooth {
		n := t.root
		for !n.leaf {
			if x[n.feat] <= n.thresh {
				n = n.left
			} else {
				n = n.right
			}
		}
		return n.model.Predict(x)
	}
	return t.smoothed(t.root, x)
}

func (t *M5Tree) smoothed(n *m5node, x []float64) float64 {
	if n.leaf {
		return n.model.Predict(x)
	}
	var child *m5node
	if x[n.feat] <= n.thresh {
		child = n.left
	} else {
		child = n.right
	}
	p := t.smoothed(child, x)
	return (float64(child.n)*p + t.opts.SmoothK*n.model.Predict(x)) /
		(float64(child.n) + t.opts.SmoothK)
}

// Leaves returns the number of leaf models.
func (t *M5Tree) Leaves() int { return countLeaves(t.root) }

func countLeaves(n *m5node) int {
	if n == nil {
		return 0
	}
	if n.leaf {
		return 1
	}
	return countLeaves(n.left) + countLeaves(n.right)
}

// Depth returns the tree depth (a lone leaf has depth 1).
func (t *M5Tree) Depth() int { return depthOf(t.root) }

func depthOf(n *m5node) int {
	if n == nil {
		return 0
	}
	if n.leaf {
		return 1
	}
	l, r := depthOf(n.left), depthOf(n.right)
	if l > r {
		return l + 1
	}
	return r + 1
}

// Render prints the tree in the paper's Figure 9 layout: the split
// structure with numbered linear models, followed by each model's
// equation.
func (t *M5Tree) Render(target string) string {
	var b strings.Builder
	var models []*Linear
	var walk func(n *m5node, indent int)
	walk = func(n *m5node, indent int) {
		pad := strings.Repeat("|   ", indent)
		if n.leaf {
			models = append(models, n.model)
			fmt.Fprintf(&b, "%sLM%d (n=%d)\n", pad, len(models), n.n)
			return
		}
		fmt.Fprintf(&b, "%s%s <= %.4g:\n", pad, t.Names[n.feat], n.thresh)
		walk(n.left, indent+1)
		fmt.Fprintf(&b, "%s%s > %.4g:\n", pad, t.Names[n.feat], n.thresh)
		walk(n.right, indent+1)
	}
	walk(t.root, 0)
	b.WriteString("\n")
	for i, m := range models {
		fmt.Fprintf(&b, "LM%d: %s = %s\n", i+1, target, m.Render(t.Names))
	}
	return b.String()
}
