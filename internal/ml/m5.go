package ml

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// M5 induction settings, the standard configuration of the paper's M5
// model trees.
const (
	// m5MinLeaf is the minimum number of examples in a leaf.
	m5MinLeaf = 4
	// m5SDStop stops splitting when a node's target deviation falls below
	// this fraction of the root deviation, as in M5.
	m5SDStop = 0.05
	// m5MaxDepth bounds the tree.
	m5MaxDepth = 20
	// m5Ridge regularizes the leaf linear models.
	m5Ridge = 1e-3
	// m5SmoothK is the constant of M5's leaf-to-root prediction smoothing.
	m5SmoothK = 15
	// m5MaxThresholds caps candidate split points per feature.
	m5MaxThresholds = 64
)

// M5Tree is an M5 pruned model tree: internal nodes split on a feature
// threshold, leaves hold linear models (the structure of the paper's
// Figure 9), and predictions are smoothed along the path. It is grown
// with leaves of at least m5MinLeaf (4) examples, an m5SDStop (0.05)
// deviation stop, depth at most m5MaxDepth (20), m5Ridge (1e-3) leaf
// regression, m5MaxThresholds (64) candidate splits per feature and
// smoothing constant m5SmoothK (15).
type M5Tree struct {
	Names []string
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
func FitM5(d *Dataset) *M5Tree {
	t := &M5Tree{Names: d.Names}
	rootSD := d.YStd()
	var buf splitBuf
	t.root = t.grow(d, rootSD, 0, &buf)
	t.prune(t.root, d)
	return t
}

func (t *M5Tree) grow(d *Dataset, rootSD float64, depth int, buf *splitBuf) *m5node {
	n := &m5node{n: d.Len(), model: FitLinear(d, m5Ridge)}
	if d.Len() < 2*m5MinLeaf || depth >= m5MaxDepth || d.YStd() < m5SDStop*rootSD {
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
	if len(li) < m5MinLeaf || len(ri) < m5MinLeaf {
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
		if len(cuts) > m5MaxThresholds {
			step := float64(len(cuts)) / float64(m5MaxThresholds)
			for i := 0; i < m5MaxThresholds; i++ {
				cuts[i] = cuts[int(float64(i)*step)]
			}
			cuts = cuts[:m5MaxThresholds]
		}
		for _, c := range cuts {
			if c < m5MinLeaf || n-c < m5MinLeaf {
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

// Predict implements Model, smoothing along the root path.
func (t *M5Tree) Predict(x []float64) float64 { return t.smoothed(t.root, x) }

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
	return (float64(child.n)*p + m5SmoothK*n.model.Predict(x)) /
		(float64(child.n) + m5SmoothK)
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
