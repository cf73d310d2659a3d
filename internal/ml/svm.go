package ml

import (
	"fmt"
	"math"
	"math/rand"
)

// SVM training settings.
const (
	// svmLambda is the regularization strength.
	svmLambda = 1e-3
	// svmEpochs is the number of passes over the data.
	svmEpochs = 60
	// svmSeed drives the example order.
	svmSeed = 1
)

// SVM is a linear soft-margin classifier trained with the Pegasos
// stochastic sub-gradient method. The paper uses a binary SVM as the first
// stage of the tuner: "decide whether or not to exploit parallelism"
// (Section 3.1.2). Features are standardized internally. Training runs
// svmEpochs (60) passes in a svmSeed (1) order at regularization
// svmLambda (1e-3).
type SVM struct {
	Names []string
	W     []float64
	B     float64
	mean  []float64
	scale []float64
}

// FitSVM trains on a dataset whose targets must be the two classes -1 and
// +1.
func FitSVM(d *Dataset) (*SVM, error) {
	n, p := d.Len(), d.Features()
	if n == 0 {
		return nil, fmt.Errorf("ml: empty SVM training set")
	}
	for _, y := range d.Y {
		if y != -1 && y != 1 {
			return nil, fmt.Errorf("ml: SVM target %v not in {-1,+1}", y)
		}
	}
	m := &SVM{
		Names: d.Names,
		W:     make([]float64, p),
		mean:  make([]float64, p),
		scale: make([]float64, p),
	}
	// Standardize features for stable step sizes.
	for j := 0; j < p; j++ {
		var s float64
		for _, row := range d.X {
			s += row[j]
		}
		m.mean[j] = s / float64(n)
		var v float64
		for _, row := range d.X {
			dlt := row[j] - m.mean[j]
			v += dlt * dlt
		}
		m.scale[j] = math.Sqrt(v / float64(n))
		if m.scale[j] == 0 {
			m.scale[j] = 1
		}
	}
	z := func(row []float64, j int) float64 { return (row[j] - m.mean[j]) / m.scale[j] }

	rng := rand.New(rand.NewSource(svmSeed))
	t := 0
	for e := 0; e < svmEpochs; e++ {
		for _, i := range rng.Perm(n) {
			t++
			eta := 1 / (svmLambda * float64(t))
			margin := m.B
			for j := 0; j < p; j++ {
				margin += m.W[j] * z(d.X[i], j)
			}
			margin *= d.Y[i]
			for j := 0; j < p; j++ {
				m.W[j] *= 1 - eta*svmLambda
			}
			if margin < 1 {
				for j := 0; j < p; j++ {
					m.W[j] += eta * d.Y[i] * z(d.X[i], j)
				}
				m.B += eta * d.Y[i]
			}
		}
	}
	return m, nil
}

// Margin returns the signed decision value for x.
func (m *SVM) Margin(x []float64) float64 {
	s := m.B
	for j, w := range m.W {
		s += w * (x[j] - m.mean[j]) / m.scale[j]
	}
	return s
}

// Predict implements Model, returning the margin (useful for metrics).
func (m *SVM) Predict(x []float64) float64 { return m.Margin(x) }

// Classify returns the predicted class.
func (m *SVM) Classify(x []float64) bool { return m.Margin(x) >= 0 }

// Accuracy returns the classification accuracy on a {-1,+1} dataset.
func (m *SVM) Accuracy(d *Dataset) float64 {
	if d.Len() == 0 {
		return 0
	}
	hits := 0
	for i, x := range d.X {
		pred := 1.0
		if !m.Classify(x) {
			pred = -1
		}
		if pred == d.Y[i] {
			hits++
		}
	}
	return float64(hits) / float64(d.Len())
}
