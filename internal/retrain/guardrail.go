// Package retrain closes the paper's feedback loop inside the daemon:
// observation logs written by online-refined jobs accumulate measured
// (instance, params, runtime) rows, and a background retrainer
// periodically shadow-trains a challenger tuner on the whole log less a
// held-out quarter, compares it against the serving champion on that
// quarter, and — only when a
// statistical guardrail says the challenger is genuinely better —
// atomically promotes it into the serving path and invalidates the
// affected system's cached plans. The champion keeps serving throughout:
// training, evaluation and even a failed promotion never touch the
// request path.
package retrain

import (
	"fmt"
	"math"
)

// The promotion gate's thresholds.
const (
	// minSamples is the minimum number of held-out pairs; below it the
	// comparison is refused outright (verdict "undersampled").
	minSamples = 8
	// minImprovement is the minimum relative improvement of the
	// challenger's mean error over the champion's:
	// (champ - chall) / champ >= minImprovement.
	minImprovement = 0.05
	// minWinRate is the minimum fraction of decided (non-tied) pairs the
	// challenger must win. This is the sign-test half of the gate: a
	// challenger whose mean is dragged down by a few lucky outliers
	// still loses most pairs and is refused (verdict "noisy").
	minWinRate = 0.6
)

// Verdict is the outcome of one champion/challenger comparison.
type Verdict struct {
	// Promote is true when every gate passed.
	Promote bool `json:"promote"`
	// Reason names the deciding gate: "promote", "undersampled",
	// "unpaired", "invalid", "champion-perfect",
	// "insufficient-improvement", or "noisy".
	Reason string `json:"reason"`
	// Samples is the number of held-out pairs compared.
	Samples int `json:"samples"`
	// ChampionErr and ChallengerErr are the mean absolute relative
	// prediction errors of the two models on the held-out pairs.
	ChampionErr   float64 `json:"champion_err"`
	ChallengerErr float64 `json:"challenger_err"`
	// Improvement is the relative improvement of the challenger's mean
	// error: (champion - challenger) / champion.
	Improvement float64 `json:"improvement"`
	// WinRate is the fraction of decided (non-tied) pairs the
	// challenger won; 0.5 when every pair tied.
	WinRate float64 `json:"win_rate"`
}

// String renders the verdict for structured logs.
func (v Verdict) String() string {
	return fmt.Sprintf("%s promote=%t samples=%d champion_err=%.4f challenger_err=%.4f improvement=%.4f win_rate=%.2f",
		v.Reason, v.Promote, v.Samples, v.ChampionErr, v.ChallengerErr, v.Improvement, v.WinRate)
}

// Decide is the promotion gate: given the champion's and challenger's
// per-observation prediction errors on the same held-out split (paired
// by index), it decides whether the challenger may replace the
// champion. The function is pure — no clocks, no randomness, no
// goroutines — so the promotion policy is exhaustively table-testable.
//
// The gate is deliberately asymmetric: promotion requires evidence, a
// tie keeps the champion. Three checks, in order: enough pairs to mean
// anything (minSamples); the challenger's mean error at least
// minImprovement relatively better; and the challenger ahead on at
// least minWinRate of the pairs that differ — the sign test that stops
// a noisy challenger whose mean is carried by a few lucky outliers.
// With n >= 8 pairs and a 0.6 win rate the chance a coin-flip
// challenger passes both mean and sign gates is already small, and it
// shrinks geometrically with n.
func Decide(champion, challenger []float64) Verdict {
	v := Verdict{Reason: "unpaired", Samples: len(challenger)}
	if len(champion) != len(challenger) {
		return v
	}
	n := len(champion)
	v.Samples = n
	if n < minSamples {
		v.Reason = "undersampled"
		return v
	}
	var sumC, sumL float64
	wins, losses := 0, 0
	for i := 0; i < n; i++ {
		c, l := champion[i], challenger[i]
		if math.IsNaN(c) || math.IsInf(c, 0) || math.IsNaN(l) || math.IsInf(l, 0) || c < 0 || l < 0 {
			v.Reason = "invalid"
			return v
		}
		sumC += c
		sumL += l
		switch {
		case l < c:
			wins++
		case l > c:
			losses++
		}
	}
	v.ChampionErr = sumC / float64(n)
	v.ChallengerErr = sumL / float64(n)
	if decided := wins + losses; decided > 0 {
		v.WinRate = float64(wins) / float64(decided)
	} else {
		v.WinRate = 0.5
	}
	if v.ChampionErr <= 0 {
		// A champion with zero held-out error cannot be improved upon.
		v.Reason = "champion-perfect"
		return v
	}
	v.Improvement = (v.ChampionErr - v.ChallengerErr) / v.ChampionErr
	switch {
	case v.Improvement < minImprovement:
		v.Reason = "insufficient-improvement"
	case v.WinRate < minWinRate:
		v.Reason = "noisy"
	default:
		v.Promote = true
		v.Reason = "promote"
	}
	return v
}
