package ml

import (
	"fmt"
	"math"
	"strings"
)

// Linear is a ridge-regularized least-squares linear model, the leaf model
// of the M5 trees (Figure 9's "LM1: halo = 0*tsize - 0.1598*dsize + ...").
// Its weights follow the feature order of the dataset it was fitted on;
// the names live with the tree that holds it.
type Linear struct {
	W []float64
	B float64
}

// FitLinear fits y ~ X with L2 regularization strength lambda (on the
// weights, not the intercept) by solving the normal equations with
// Gaussian elimination and partial pivoting. An empty dataset yields the
// zero model; a constant dataset yields an intercept-only model.
func FitLinear(d *Dataset, lambda float64) *Linear {
	p := d.Features()
	m := &Linear{W: make([]float64, p)}
	n := d.Len()
	if n == 0 {
		return m
	}
	// Build the (p+1)x(p+1) system A beta = b over [features..., 1].
	dim := p + 1
	a := make([][]float64, dim)
	for i := range a {
		a[i] = make([]float64, dim+1)
	}
	for _, row := range d.X {
		for i := 0; i < p; i++ {
			for j := 0; j < p; j++ {
				a[i][j] += row[i] * row[j]
			}
			a[i][p] += row[i]
			a[p][i] += row[i]
		}
	}
	a[p][p] = float64(n)
	for r, row := range d.X {
		for i := 0; i < p; i++ {
			a[i][dim] += row[i] * d.Y[r]
		}
		a[p][dim] += d.Y[r]
	}
	for i := 0; i < p; i++ {
		a[i][i] += lambda
	}

	beta, ok := solve(a)
	if !ok {
		// Singular even with regularization: fall back to the mean.
		m.B = d.YMean()
		return m
	}
	copy(m.W, beta[:p])
	m.B = beta[p]
	return m
}

// solve performs in-place Gaussian elimination with partial pivoting on an
// augmented matrix and returns the solution vector.
func solve(a [][]float64) ([]float64, bool) {
	n := len(a)
	for col := 0; col < n; col++ {
		// Pivot.
		best, bestAbs := col, math.Abs(a[col][col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a[r][col]); v > bestAbs {
				best, bestAbs = r, v
			}
		}
		if bestAbs < 1e-12 {
			return nil, false
		}
		a[col], a[best] = a[best], a[col]
		// Eliminate.
		for r := col + 1; r < n; r++ {
			f := a[r][col] / a[col][col]
			if f == 0 {
				continue
			}
			for c := col; c <= n; c++ {
				a[r][c] -= f * a[col][c]
			}
		}
	}
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		s := a[r][n]
		for c := r + 1; c < n; c++ {
			s -= a[r][c] * x[c]
		}
		x[r] = s / a[r][r]
	}
	return x, true
}

// Predict implements Model.
func (l *Linear) Predict(x []float64) float64 {
	s := l.B
	for i, w := range l.W {
		s += w * x[i]
	}
	return s
}

// Render prints the model in the paper's Figure 9 style, naming weight i
// by names[i].
func (l *Linear) Render(names []string) string {
	var b strings.Builder
	for i, w := range l.W {
		if w == 0 {
			continue
		}
		if b.Len() > 0 {
			if w >= 0 {
				b.WriteString(" + ")
			} else {
				b.WriteString(" - ")
				w = -w
			}
		}
		fmt.Fprintf(&b, "%.4g*%s", w, names[i])
	}
	if b.Len() == 0 {
		return fmt.Sprintf("%.4g", l.B)
	}
	if l.B >= 0 {
		fmt.Fprintf(&b, " + %.4g", l.B)
	} else {
		fmt.Fprintf(&b, " - %.4g", -l.B)
	}
	return b.String()
}
