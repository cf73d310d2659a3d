// Package ml implements the machine-learning models the paper uses for
// autotuning — M5 pruned model trees, REP trees, a binary linear SVM and
// ridge linear regression — together with datasets, k-fold cross-validation
// and regression/classification metrics. Everything is built on the
// standard library only and is deterministic given a seed, so trained
// tuners are exactly reproducible.
//
// Each learner trains at one standard setting, held in unexported
// constants rather than options: the m5* constants for M5Tree, rep* for
// REPTree and svm* for SVM. Each type's comment gives the values.
package ml

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
)

// Dataset is a design matrix with one numeric target.
type Dataset struct {
	// Names labels the feature columns (used when rendering models).
	Names []string
	X     [][]float64
	Y     []float64
}

// NewDataset creates an empty dataset over the named features.
func NewDataset(names ...string) *Dataset {
	return &Dataset{Names: names}
}

// Add appends one example. The row is copied.
func (d *Dataset) Add(x []float64, y float64) {
	if len(x) != len(d.Names) {
		panic(fmt.Sprintf("ml: row has %d features, dataset has %d", len(x), len(d.Names)))
	}
	d.X = append(d.X, append([]float64(nil), x...))
	d.Y = append(d.Y, y)
}

// Len returns the number of examples.
func (d *Dataset) Len() int { return len(d.Y) }

// Features returns the number of feature columns.
func (d *Dataset) Features() int { return len(d.Names) }

// Subset returns a new dataset containing the rows at the given indices
// (rows are shared, not copied).
func (d *Dataset) Subset(idx []int) *Dataset {
	s := &Dataset{Names: d.Names}
	s.X = make([][]float64, 0, len(idx))
	s.Y = make([]float64, 0, len(idx))
	for _, i := range idx {
		s.X = append(s.X, d.X[i])
		s.Y = append(s.Y, d.Y[i])
	}
	return s
}

// Shuffle returns a permuted copy using the given seed.
func (d *Dataset) Shuffle(seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	idx := rng.Perm(d.Len())
	return d.Subset(idx)
}

// Split divides the dataset into a head of fraction frac and the
// remainder, without shuffling.
func (d *Dataset) Split(frac float64) (head, tail *Dataset) {
	n := int(math.Round(frac * float64(d.Len())))
	if n < 0 {
		n = 0
	}
	if n > d.Len() {
		n = d.Len()
	}
	idx := make([]int, d.Len())
	for i := range idx {
		idx[i] = i
	}
	return d.Subset(idx[:n]), d.Subset(idx[n:])
}

// YMean returns the mean target value.
func (d *Dataset) YMean() float64 {
	if d.Len() == 0 {
		return 0
	}
	s := 0.0
	for _, y := range d.Y {
		s += y
	}
	return s / float64(d.Len())
}

// YStd returns the population standard deviation of the target.
func (d *Dataset) YStd() float64 {
	n := d.Len()
	if n == 0 {
		return 0
	}
	m := d.YMean()
	s := 0.0
	for _, y := range d.Y {
		s += (y - m) * (y - m)
	}
	return math.Sqrt(s / float64(n))
}

// String summarizes the dataset shape.
func (d *Dataset) String() string {
	return fmt.Sprintf("dataset{%d x [%s]}", d.Len(), strings.Join(d.Names, ","))
}

// Model is any fitted regressor.
type Model interface {
	Predict(x []float64) float64
}
