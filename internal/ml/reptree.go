package ml

import "sort"

// REP induction settings, WEKA's REPTree defaults.
const (
	// repMinLeaf is the minimum number of examples per leaf.
	repMinLeaf = 2
	// repMaxDepth bounds the tree.
	repMaxDepth = 20
	// repPruneFraction is the share of data held out for reduced-error
	// pruning.
	repPruneFraction = 1.0 / 3.0
	// repSeed drives the grow/prune split.
	repSeed = 1
)

// REPTree is a regression tree with variance-reduction splits and
// reduced-error pruning against a held-out set — the fast decision-tree
// learner the paper uses for the (near-binary) gpu-tile decision. It
// grows on a repSeed (1) shuffle of the data less a repPruneFraction
// (1/3) prune set, with leaves of at least repMinLeaf (2) examples and
// depth at most repMaxDepth (20).
type REPTree struct {
	Names []string
	root  *repNode
}

type repNode struct {
	feat   int
	thresh float64
	left   *repNode
	right  *repNode
	mean   float64
	n      int
	leaf   bool
}

// FitREP grows a tree on a grow/prune split of d and prunes it.
func FitREP(d *Dataset) *REPTree {
	t := &REPTree{Names: d.Names}
	shuffled := d.Shuffle(repSeed)
	pruneSet, growSet := shuffled.Split(repPruneFraction)
	if growSet.Len() == 0 {
		growSet = shuffled
		pruneSet = NewDataset(d.Names...)
	}
	t.root = t.grow(growSet, 0)
	if pruneSet.Len() > 0 {
		t.prune(t.root, pruneSet)
	}
	return t
}

func (t *REPTree) grow(d *Dataset, depth int) *repNode {
	n := &repNode{n: d.Len(), mean: d.YMean()}
	if d.Len() < 2*repMinLeaf || depth >= repMaxDepth || d.YStd() == 0 {
		n.leaf = true
		return n
	}
	feat, thresh, ok := bestVarianceSplit(d, repMinLeaf)
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
	n.feat, n.thresh = feat, thresh
	n.left = t.grow(d.Subset(li), depth+1)
	n.right = t.grow(d.Subset(ri), depth+1)
	return n
}

// bestVarianceSplit minimizes the weighted child variance.
func bestVarianceSplit(d *Dataset, minLeaf int) (feat int, thresh float64, ok bool) {
	n := d.Len()
	type pair struct{ x, y float64 }
	base := d.YStd()
	bestScore := base * base * float64(n) // total SSE to beat
	for f := 0; f < d.Features(); f++ {
		ps := make([]pair, n)
		for i, row := range d.X {
			ps[i] = pair{row[f], d.Y[i]}
		}
		sort.Slice(ps, func(i, j int) bool { return ps[i].x < ps[j].x })
		var sum, sumSq float64
		prefix := make([]float64, n+1)
		prefixSq := make([]float64, n+1)
		for i, p := range ps {
			sum += p.y
			sumSq += p.y * p.y
			prefix[i+1] = sum
			prefixSq[i+1] = sumSq
		}
		sseOf := func(lo, hi int) float64 {
			c := float64(hi - lo)
			if c <= 0 {
				return 0
			}
			m := (prefix[hi] - prefix[lo]) / c
			s := (prefixSq[hi] - prefixSq[lo]) - c*m*m
			if s < 0 {
				s = 0
			}
			return s
		}
		for c := minLeaf; c <= n-minLeaf; c++ {
			if c < 1 || c >= n || ps[c].x == ps[c-1].x {
				continue
			}
			score := sseOf(0, c) + sseOf(c, n)
			if score < bestScore-1e-12 {
				bestScore = score
				feat = f
				thresh = (ps[c-1].x + ps[c].x) / 2
				ok = true
			}
		}
	}
	return feat, thresh, ok
}

// prune performs reduced-error pruning: a subtree is replaced by a leaf
// when doing so does not increase squared error on the prune set.
func (t *REPTree) prune(n *repNode, pruneSet *Dataset) float64 {
	leafErr := 0.0
	for i := range pruneSet.X {
		e := n.mean - pruneSet.Y[i]
		leafErr += e * e
	}
	if n.leaf {
		return leafErr
	}
	var li, ri []int
	for i, row := range pruneSet.X {
		if row[n.feat] <= n.thresh {
			li = append(li, i)
		} else {
			ri = append(ri, i)
		}
	}
	subErr := t.prune(n.left, pruneSet.Subset(li)) + t.prune(n.right, pruneSet.Subset(ri))
	if leafErr <= subErr {
		n.leaf = true
		n.left, n.right = nil, nil
		return leafErr
	}
	return subErr
}

// Predict implements Model.
func (t *REPTree) Predict(x []float64) float64 {
	n := t.root
	for !n.leaf {
		if x[n.feat] <= n.thresh {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.mean
}

// Classify thresholds the regression output at 0.5, for binary targets
// such as the paper's "gpu-tile is effectively 1 or 0" decision.
func (t *REPTree) Classify(x []float64) bool { return t.Predict(x) >= 0.5 }
