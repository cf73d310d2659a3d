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

// fold is one k-fold split of a dataset: the training subset and the
// indices of the held-out rows.
type fold struct {
	train *Dataset
	held  []int
}

// kFolds cuts d into the k shuffled folds of KFold and builds each fold's
// training subset once, so every model cross-validated on the folds
// trains on the same subsets.
func kFolds(d *Dataset, k int, seed int64) ([]fold, error) {
	n := d.Len()
	if n < 2 {
		return nil, fmt.Errorf("ml: cross-validation needs >= 2 examples, have %d", n)
	}
	parts := KFold(n, k, seed)
	folds := make([]fold, len(parts))
	holdout := make([]bool, n)
	trainIdx := make([]int, 0, n)
	for f, held := range parts {
		for _, i := range held {
			holdout[i] = true
		}
		trainIdx = trainIdx[:0]
		for i, out := range holdout {
			if !out {
				trainIdx = append(trainIdx, i)
			}
		}
		for _, i := range held {
			holdout[i] = false
		}
		folds[f] = fold{train: d.Subset(trainIdx), held: held}
	}
	return folds, nil
}

// CrossValidateAccuracy runs k-fold cross-validation: fit is called with
// each training split, and the returned models are scored on the
// held-out folds, the evaluation protocol of Section 3.1.2
// ("cross-validation ... conducted on instances omitted from the training
// set, to avoid overfitting"). It returns the fraction of held-out
// predictions within absTol + relTol*|y| of the target.
func CrossValidateAccuracy(d *Dataset, k int, seed int64, absTol, relTol float64,
	fit func(train *Dataset) Model) (float64, error) {
	folds, err := kFolds(d, k, seed)
	if err != nil {
		return 0, err
	}
	models := make([]Model, len(folds))
	for f := range folds {
		models[f] = fit(folds[f].train)
	}
	return foldAccuracy(d, folds, models, absTol, relTol), nil
}

// foldAccuracy scores models[f], trained on folds[f].train, on that
// fold's held-out rows of d by the tolerance-accuracy criterion.
func foldAccuracy(d *Dataset, folds []fold, models []Model, absTol, relTol float64) float64 {
	hits, total := 0, 0
	for f, fd := range folds {
		for _, i := range fd.held {
			limit := absTol + relTol*abs(d.Y[i])
			if abs(models[f].Predict(d.X[i])-d.Y[i]) <= limit {
				hits++
			}
			total++
		}
	}
	return float64(hits) / float64(total)
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
