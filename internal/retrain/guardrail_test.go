package retrain

import (
	"math"
	"strings"
	"testing"
)

func repeat(v float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// TestDecideTable is the deterministic guardrail battery: every gate of
// the promotion decision exercised on synthetic error sets, no clocks,
// no goroutines. Promotion fires exactly when every gate passes.
func TestDecideTable(t *testing.T) {
	cases := []struct {
		name       string
		champion   []float64
		challenger []float64
		promote    bool
		reason     string
	}{
		{
			name:       "clear win",
			champion:   repeat(1.0, 10),
			challenger: repeat(0.2, 10),
			promote:    true,
			reason:     "promote",
		},
		{
			name:       "clear loss",
			champion:   repeat(0.2, 10),
			challenger: repeat(1.0, 10),
			promote:    false,
			reason:     "insufficient-improvement",
		},
		{
			name:       "tie keeps champion",
			champion:   repeat(0.5, 10),
			challenger: repeat(0.5, 10),
			promote:    false,
			reason:     "insufficient-improvement",
		},
		{
			name:       "under-sampled refuses even a landslide",
			champion:   repeat(1.0, 3),
			challenger: repeat(0.01, 3),
			promote:    false,
			reason:     "undersampled",
		},
		{
			// The adversarial-noise case: the challenger loses 9 of 10
			// pairs but one lucky outlier drags its mean past the
			// improvement gate. The sign test must refuse it.
			name:       "adversarial noise blocked by sign test",
			champion:   repeat(1.0, 10),
			challenger: append(repeat(1.05, 9), 0.0),
			promote:    false,
			reason:     "noisy",
		},
		{
			name:       "marginal improvement below gate",
			champion:   repeat(1.0, 10),
			challenger: repeat(0.97, 10),
			promote:    false,
			reason:     "insufficient-improvement",
		},
		{
			name:       "unpaired inputs refused",
			champion:   repeat(1.0, 10),
			challenger: repeat(0.2, 9),
			promote:    false,
			reason:     "unpaired",
		},
		{
			name:       "NaN error refused",
			champion:   append(repeat(1.0, 9), math.NaN()),
			challenger: repeat(0.2, 10),
			promote:    false,
			reason:     "invalid",
		},
		{
			name:       "infinite error refused",
			champion:   repeat(1.0, 10),
			challenger: append(repeat(0.2, 9), math.Inf(1)),
			promote:    false,
			reason:     "invalid",
		},
		{
			name:       "negative error refused",
			champion:   repeat(1.0, 10),
			challenger: append(repeat(0.2, 9), -0.1),
			promote:    false,
			reason:     "invalid",
		},
		{
			name:       "perfect champion cannot be beaten",
			champion:   repeat(0.0, 10),
			challenger: repeat(0.0, 10),
			promote:    false,
			reason:     "champion-perfect",
		},
		{
			name:       "empty inputs undersampled",
			champion:   nil,
			challenger: nil,
			promote:    false,
			reason:     "undersampled",
		},
		{
			name:       "seven pairs are undersampled",
			champion:   repeat(1.0, 7),
			challenger: repeat(0.2, 7),
			promote:    false,
			reason:     "undersampled",
		},
		{
			name:       "eight pairs suffice",
			champion:   repeat(1.0, 8),
			challenger: repeat(0.2, 8),
			promote:    true,
			reason:     "promote",
		},
		{
			name:       "improvement just under 0.05",
			champion:   repeat(1.0, 10),
			challenger: repeat(0.951, 10),
			promote:    false,
			reason:     "insufficient-improvement",
		},
		{
			name:       "improvement just over 0.05",
			champion:   repeat(1.0, 10),
			challenger: repeat(0.949, 10),
			promote:    true,
			reason:     "promote",
		},
		{
			// 10 wins of 17 decided pairs: 0.588.
			name:       "win rate just under 0.6",
			champion:   repeat(1.0, 17),
			challenger: append(repeat(0.1, 10), repeat(1.5, 7)...),
			promote:    false,
			reason:     "noisy",
		},
		{
			name:       "win rate at 0.6",
			champion:   repeat(1.0, 10),
			challenger: append(repeat(0.1, 6), repeat(1.5, 4)...),
			promote:    true,
			reason:     "promote",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v := Decide(tc.champion, tc.challenger)
			if v.Promote != tc.promote || v.Reason != tc.reason {
				t.Fatalf("Decide = %+v, want promote=%t reason=%q", v, tc.promote, tc.reason)
			}
			if v.Promote && v.Reason != "promote" {
				t.Fatalf("promoting verdict must carry the promote reason: %+v", v)
			}
		})
	}
}

// TestDecideIsPure re-runs the same comparison and demands identical
// verdicts — the decision function must have no hidden state.
func TestDecideIsPure(t *testing.T) {
	champ := []float64{1.0, 0.9, 1.1, 0.8, 1.2, 1.0, 0.95, 1.05}
	chall := []float64{0.5, 0.4, 0.6, 0.3, 0.7, 0.5, 0.45, 0.55}
	v1 := Decide(champ, chall)
	v2 := Decide(champ, chall)
	if v1 != v2 {
		t.Fatalf("Decide not deterministic: %+v vs %+v", v1, v2)
	}
	if !v1.Promote {
		t.Fatalf("uniform halving of error must promote: %+v", v1)
	}
	if v1.WinRate != 1.0 {
		t.Fatalf("win rate = %v, want 1.0", v1.WinRate)
	}
	if v1.Improvement < 0.45 || v1.Improvement > 0.55 {
		t.Fatalf("improvement = %v, want about 0.5", v1.Improvement)
	}
	if !strings.Contains(v1.String(), "promote=true") {
		t.Fatalf("String() = %q", v1.String())
	}
}
