package ml

import (
	"fmt"
	"math/rand"
)

// KFold partitions [0, n) into k disjoint folds, shuffled by seed. Fold
// sizes differ by at most one.
func KFold(n, k int, seed int64) [][]int {
	if k < 2 {
		k = 2
	}
	if k > n {
		k = n
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)
	folds := make([][]int, k)
	for i, idx := range perm {
		folds[i%k] = append(folds[i%k], idx)
	}
	return folds
}

// CrossValidateAccuracy runs k-fold cross-validation: fit is called with
// each training split, and the returned models are scored on the
// held-out folds, the evaluation protocol of Section 3.1.2
// ("cross-validation ... conducted on instances omitted from the training
// set, to avoid overfitting"). It returns the fraction of held-out
// predictions within absTol + relTol*|y| of the target.
func CrossValidateAccuracy(d *Dataset, k int, seed int64, absTol, relTol float64,
	fit func(train *Dataset) Model) (float64, error) {
	n := d.Len()
	if n < 2 {
		return 0, fmt.Errorf("ml: cross-validation needs >= 2 examples, have %d", n)
	}
	holdout := make([]bool, n)
	trainIdx := make([]int, 0, n)
	hits := 0
	for _, held := range KFold(n, k, seed) {
		for _, i := range held {
			holdout[i] = true
		}
		trainIdx = trainIdx[:0]
		for i, out := range holdout {
			if !out {
				trainIdx = append(trainIdx, i)
			}
		}
		m := fit(d.Subset(trainIdx))
		for _, i := range held {
			holdout[i] = false
			if abs(m.Predict(d.X[i])-d.Y[i]) <= absTol+relTol*abs(d.Y[i]) {
				hits++
			}
		}
	}
	return float64(hits) / float64(n), nil
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
