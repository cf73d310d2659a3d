package ml

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// synthDataset builds n examples of a piecewise-linear function with
// noise, the regime M5 trees are designed for.
func synthDataset(n int, noise float64, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := NewDataset("a", "b", "c")
	for i := 0; i < n; i++ {
		a := rng.Float64() * 10
		b := rng.Float64() * 10
		c := rng.Float64() * 10
		var y float64
		if a <= 5 {
			y = 2*a + b - 3
		} else {
			y = -a + 4*c + 10
		}
		y += rng.NormFloat64() * noise
		d.Add([]float64{a, b, c}, y)
	}
	return d
}

func TestDatasetBasics(t *testing.T) {
	d := NewDataset("x")
	d.Add([]float64{1}, 2)
	d.Add([]float64{3}, 4)
	if d.Len() != 2 || d.Features() != 1 {
		t.Fatal("shape wrong")
	}
	if d.YMean() != 3 {
		t.Errorf("YMean = %v, want 3", d.YMean())
	}
	if d.YStd() != 1 {
		t.Errorf("YStd = %v, want 1", d.YStd())
	}
	s := d.Subset([]int{1})
	if s.Len() != 1 || s.Y[0] != 4 {
		t.Error("subset wrong")
	}
	h, tl := d.Split(0.5)
	if h.Len() != 1 || tl.Len() != 1 {
		t.Error("split wrong")
	}
}

func TestDatasetAddPanicsOnBadRow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewDataset("x", "y").Add([]float64{1}, 0)
}

func TestShuffleDeterministic(t *testing.T) {
	d := synthDataset(50, 0, 7)
	a := d.Shuffle(42)
	b := d.Shuffle(42)
	for i := range a.Y {
		if a.Y[i] != b.Y[i] {
			t.Fatal("shuffle not deterministic")
		}
	}
}

func TestLinearExactRecovery(t *testing.T) {
	// Noise-free linear data must be recovered nearly exactly.
	rng := rand.New(rand.NewSource(3))
	d := NewDataset("u", "v")
	for i := 0; i < 200; i++ {
		u, v := rng.Float64()*5, rng.Float64()*5
		d.Add([]float64{u, v}, 3*u-2*v+7)
	}
	m := FitLinear(d, 1e-9)
	if math.Abs(m.W[0]-3) > 1e-6 || math.Abs(m.W[1]+2) > 1e-6 || math.Abs(m.B-7) > 1e-6 {
		t.Errorf("recovered %v + %v, want [3 -2] + 7", m.W, m.B)
	}
	met := Evaluate(m, d)
	if met.R2 < 0.999999 {
		t.Errorf("R2 = %v, want ~1", met.R2)
	}
}

func TestLinearHandlesDegenerate(t *testing.T) {
	// Constant feature: ridge keeps the system solvable.
	d := NewDataset("x")
	for i := 0; i < 10; i++ {
		d.Add([]float64{2}, 5)
	}
	m := FitLinear(d, 1e-3)
	if p := m.Predict([]float64{2}); math.Abs(p-5) > 0.1 {
		t.Errorf("degenerate prediction %v, want ~5", p)
	}
	// Empty dataset: zero model.
	if FitLinear(NewDataset("x"), 1).Predict([]float64{1}) != 0 {
		t.Error("empty fit must predict 0")
	}
}

func TestLinearString(t *testing.T) {
	m := &Linear{W: []float64{0, -0.1598}, B: -0.381}
	s := m.Render([]string{"tsize", "dsize"})
	if s != "-0.1598*dsize - 0.381" {
		t.Errorf("Render = %q", s)
	}
	// Zero weights entirely.
	z := &Linear{W: []float64{0}, B: 2}
	if got := z.Render([]string{"x"}); got != "2" {
		t.Errorf("Render = %q, want \"2\"", got)
	}
}

func TestM5FitsPiecewiseLinear(t *testing.T) {
	// A piecewise-linear target is the M5 sweet spot: the tree should
	// split near a=5 and fit each side closely.
	train := synthDataset(600, 0.05, 11)
	test := synthDataset(200, 0.05, 12)
	m := FitM5(train)
	met := Evaluate(m, test)
	if met.R2 < 0.95 {
		t.Errorf("M5 R2 = %v, want >= 0.95", met.R2)
	}
	if m.Leaves() < 2 {
		t.Error("tree must split at least once")
	}
}

func TestM5BeatsPlainLinearOnPiecewise(t *testing.T) {
	train := synthDataset(600, 0.05, 21)
	test := synthDataset(200, 0.05, 22)
	m5 := FitM5(train)
	lin := FitLinear(train, 1e-6)
	if Evaluate(m5, test).RMSE >= Evaluate(lin, test).RMSE {
		t.Error("M5 must beat a single linear model on piecewise data " +
			"(the paper found plain regression lacking)")
	}
}

func TestM5PruningShrinksTree(t *testing.T) {
	// Pure noise: pruning should collapse (nearly) everything.
	rng := rand.New(rand.NewSource(5))
	d := NewDataset("x")
	for i := 0; i < 300; i++ {
		d.Add([]float64{rng.Float64()}, rng.NormFloat64())
	}
	m := FitM5(d)
	if m.Leaves() > 8 {
		t.Errorf("noise tree kept %d leaves; pruning too weak", m.Leaves())
	}
}

func TestM5DeterministicAndRenders(t *testing.T) {
	d := synthDataset(300, 0.1, 31)
	a := FitM5(d)
	b := FitM5(d)
	probe := []float64{4, 2, 8}
	if a.Predict(probe) != b.Predict(probe) {
		t.Error("M5 fit not deterministic")
	}
	r := a.Render("halo")
	if len(r) == 0 || a.Depth() < 1 {
		t.Error("render/depth broken")
	}
}

func TestM5SmoothingBounded(t *testing.T) {
	// Smoothed predictions must stay within the convex hull of node model
	// predictions; sanity-check against explosion.
	d := synthDataset(400, 0.1, 41)
	m := FitM5(d)
	f := func(ra, rb, rc uint8) bool {
		x := []float64{float64(ra) / 25.5, float64(rb) / 25.5, float64(rc) / 25.5}
		p := m.Predict(x)
		return !math.IsNaN(p) && math.Abs(p) < 1e4
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestREPTreeFitsStep(t *testing.T) {
	// A step function is the REP tree sweet spot.
	rng := rand.New(rand.NewSource(9))
	train := NewDataset("x", "z")
	for i := 0; i < 400; i++ {
		x, z := rng.Float64()*10, rng.Float64()
		y := 0.0
		if x > 6 {
			y = 1
		}
		train.Add([]float64{x, z}, y)
	}
	m := FitREP(train)
	errs := 0
	for i := 0; i < 100; i++ {
		x, z := rng.Float64()*10, rng.Float64()
		want := x > 6
		if m.Classify([]float64{x, z}) != want {
			errs++
		}
	}
	if errs > 5 {
		t.Errorf("REP tree misclassified %d/100 on a clean step", errs)
	}
}

func TestREPPruningControlsNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	d := NewDataset("x")
	for i := 0; i < 400; i++ {
		d.Add([]float64{rng.Float64()}, rng.NormFloat64())
	}
	m := FitREP(d)
	if m.Leaves() > 25 {
		t.Errorf("noise REP tree kept %d leaves", m.Leaves())
	}
}

func TestSVMSeparable(t *testing.T) {
	// Linearly separable classes must be classified near-perfectly.
	rng := rand.New(rand.NewSource(17))
	d := NewDataset("x", "y")
	for i := 0; i < 400; i++ {
		x, y := rng.NormFloat64(), rng.NormFloat64()
		label := -1.0
		if x+y > 0.5 {
			label = 1
		}
		d.Add([]float64{x, y}, label)
	}
	m, err := FitSVM(d)
	if err != nil {
		t.Fatal(err)
	}
	if acc := m.Accuracy(d); acc < 0.97 {
		t.Errorf("separable accuracy = %v, want >= 0.97", acc)
	}
}

func TestSVMRejectsBadLabels(t *testing.T) {
	d := NewDataset("x")
	d.Add([]float64{1}, 0.5)
	if _, err := FitSVM(d); err == nil {
		t.Error("non-binary labels must be rejected")
	}
	if _, err := FitSVM(NewDataset("x")); err == nil {
		t.Error("empty training set must be rejected")
	}
}

func TestSVMDeterministic(t *testing.T) {
	d := synthDataset(100, 0, 19)
	bin := NewDataset(d.Names...)
	for i := range d.Y {
		l := -1.0
		if d.Y[i] > d.YMean() {
			l = 1
		}
		bin.Add(d.X[i], l)
	}
	a, _ := FitSVM(bin)
	b, _ := FitSVM(bin)
	for j := range a.W {
		if a.W[j] != b.W[j] {
			t.Fatal("SVM training not deterministic")
		}
	}
}

func TestKFoldPartition(t *testing.T) {
	folds := KFold(17, 5, 3)
	if len(folds) != 5 {
		t.Fatalf("want 5 folds, got %d", len(folds))
	}
	seen := map[int]bool{}
	for _, f := range folds {
		for _, i := range f {
			if seen[i] {
				t.Fatalf("index %d in two folds", i)
			}
			seen[i] = true
		}
	}
	if len(seen) != 17 {
		t.Fatalf("covered %d indices, want 17", len(seen))
	}
}

func TestCrossValidateCatchesOverfit(t *testing.T) {
	// A nearest-row model memorizes its training data, noise and all;
	// cross-validation scores it on rows it never saw, so it must not.
	d := synthDataset(120, 1.0, 23)
	const absTol = 0.5
	memorize := func(train *Dataset) Model { return nearestRow{train} }
	inSample := 0
	for i, x := range d.X {
		if math.Abs(memorize(d).Predict(x)-d.Y[i]) <= absTol {
			inSample++
		}
	}
	if inSample != d.Len() {
		t.Fatalf("in-sample hits %d/%d: the memorizer does not memorize", inSample, d.Len())
	}
	acc, err := CrossValidateAccuracy(d, 5, 1, absTol, 0, memorize)
	if err != nil {
		t.Fatal(err)
	}
	// With noise sd=1, at most ~38% of held-out rows can land within 0.5.
	if acc > 0.5 {
		t.Errorf("CV accuracy %v implausibly high for a memorizer; leakage?", acc)
	}
}

// nearestRow predicts the target of the training row closest to x.
type nearestRow struct{ d *Dataset }

func (m nearestRow) Predict(x []float64) float64 {
	best, bestDist := 0.0, math.Inf(1)
	for i, row := range m.d.X {
		dist := 0.0
		for j := range row {
			dist += (row[j] - x[j]) * (row[j] - x[j])
		}
		if dist < bestDist {
			best, bestDist = m.d.Y[i], dist
		}
	}
	return best
}

func TestCrossValidateAccuracyGate(t *testing.T) {
	// Near-noise-free piecewise data must pass the paper's 90% gate.
	d := synthDataset(400, 0.01, 29)
	acc, err := CrossValidateAccuracy(d, 5, 1, 0.5, 0.1, func(train *Dataset) Model {
		return FitM5(train)
	})
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.9 {
		t.Errorf("CV accuracy %v below the 90%% gate", acc)
	}
}

func TestCrossValidateErrors(t *testing.T) {
	d := NewDataset("x")
	d.Add([]float64{1}, 1)
	fit := func(train *Dataset) Model { return FitM5(train) }
	if _, err := CrossValidateAccuracy(d, 5, 1, 0.5, 0.1, fit); err == nil {
		t.Error("CV on 1 example must fail")
	}
}

// TestFitM5Allocations bounds the allocations of one fit on the
// repository's M5 fit benchmark dataset. The split search reuses its
// pair, prefix-sum and cut buffers across features and nodes, so what is
// left is per node: the linear models, the child subsets and the sort.
func TestFitM5Allocations(t *testing.T) {
	d := NewDataset("x", "y")
	for i := 0; i < 500; i++ {
		x := float64(i % 25)
		y := float64((i * 7) % 13)
		target := 2*x - y
		if x > 12 {
			target = -x + 3*y
		}
		d.Add([]float64{x, y}, target)
	}
	const limit = 4753
	if got := testing.AllocsPerRun(5, func() { FitM5(d) }); got > limit {
		t.Errorf("FitM5 allocates %v times per fit, want at most %d", got, limit)
	}
}

func TestEvaluatePerfectModel(t *testing.T) {
	d := synthDataset(50, 0, 33)
	perfect := modelExact{d}
	met := Evaluate(perfect, d)
	if met.MAE != 0 || met.RMSE != 0 || met.R2 != 1 {
		t.Errorf("perfect model metrics wrong: %+v", met)
	}
}

// modelExact replays the dataset targets by matching rows.
type modelExact struct{ d *Dataset }

func (m modelExact) Predict(x []float64) float64 {
	for i, row := range m.d.X {
		same := true
		for j := range row {
			if row[j] != x[j] {
				same = false
				break
			}
		}
		if same {
			return m.d.Y[i]
		}
	}
	return 0
}

// Metrics aggregates regression quality measures.
type Metrics struct {
	MAE  float64 // mean absolute error
	RMSE float64
	R2   float64 // coefficient of determination vs the mean predictor
	N    int
}

// Evaluate scores a model on a dataset.
func Evaluate(m Model, d *Dataset) Metrics {
	n := d.Len()
	if n == 0 {
		return Metrics{}
	}
	mean := d.YMean()
	var sae, sse, sst float64
	for i, x := range d.X {
		p := m.Predict(x)
		e := p - d.Y[i]
		sae += math.Abs(e)
		sse += e * e
		sst += (d.Y[i] - mean) * (d.Y[i] - mean)
	}
	r2 := 0.0
	if sst > 0 {
		r2 = 1 - sse/sst
	} else if sse == 0 {
		r2 = 1
	}
	return Metrics{MAE: sae / float64(n), RMSE: math.Sqrt(sse / float64(n)), R2: r2, N: n}
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

// Leaves returns the leaf count.
func (t *REPTree) Leaves() int {
	var count func(*repNode) int
	count = func(n *repNode) int {
		if n == nil {
			return 0
		}
		if n.leaf {
			return 1
		}
		return count(n.left) + count(n.right)
	}
	return count(t.root)
}
