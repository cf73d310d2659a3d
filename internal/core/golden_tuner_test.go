package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"repro/internal/hw"
)

// goldenTunerSHA256 holds the SHA-256 of json.Marshal of the tuner the
// daemon trains for each Table 4 system (NewTrainingSource's default:
// TrainFromSpace over ServingSpace(QuickSpace()) with
// DefaultTrainOptions). The model pipeline is deterministic, so a change
// that only removes repeated work from training must leave every byte
// alone; a moved hash means the served models changed.
var goldenTunerSHA256 = map[string]string{
	"i7-2600K": "57e7bad98351a403822849b796180ee343e3fef041765f2ef6563cb2ad1026f9",
	"i3-540":   "07e9f0a67b73c16763565b7e6c3e6b9ce8091e61facf5bf90800efb19ee32de0",
	"i7-3820":  "fa94e13320660815e0696f9795649402e83ec59e6366b3bb75df30180e43260c",
}

// TestGoldenServedTuners pins the daemon's trained tuners byte for byte. TestTrainFromSpaceMatchesExhaustiveTrain compares two training
// paths that share the model fitting code, so it cannot see a drift in
// that code; this test can.
func TestGoldenServedTuners(t *testing.T) {
	space := ServingSpace(QuickSpace())
	for _, sys := range hw.Systems() {
		t.Run(sys.Name, func(t *testing.T) {
			tu, err := TrainFromSpace(sys, space, DefaultTrainOptions())
			if err != nil {
				t.Fatal(err)
			}
			data, err := json.Marshal(tu)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(data)
			got := hex.EncodeToString(sum[:])
			if want := goldenTunerSHA256[sys.Name]; got != want {
				t.Errorf("tuner SHA-256 = %s, want %s", got, want)
			}
		})
	}
}
