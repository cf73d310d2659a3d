package core

import (
	"encoding/json"
	"testing"

	"repro/internal/hw"
)

// FuzzTunerLoad fuzzes the versioned tuner-file decoder. Properties:
// UnmarshalPredictor never panics on arbitrary input; a successful
// decode yields a predictor with a resolvable system; and re-marshaling
// a decoded predictor produces a file that decodes again to the same
// system.
func FuzzTunerLoad(f *testing.F) {
	sr, err := Exhaustive(hw.I7_2600K(), tinySpace(), SearchOptions{})
	if err != nil {
		f.Fatal(err)
	}
	tree, err := Train(sr, DefaultTrainOptions())
	if err != nil {
		f.Fatal(err)
	}
	treeJSON, err := json.Marshal(tree)
	if err != nil {
		f.Fatal(err)
	}
	seeds := []string{
		string(treeJSON),
		// A version 5 file from when the trees stored their options.
		string(withTreeOpts(f, treeJSON)),
		// Error paths the decoder must reject without panicking,
		// including the retired v1, v2, v3, v4 and bilinear spellings.
		`{"system":"nonexistent","version":1}`,
		`{"system":"i3-540","version":99}`,
		`{"system":"i3-540","version":1}`,
		`{"system":"i3-540","version":2,"kind":"tree"}`,
		`{"system":"i3-540","version":3,"kind":"tree"}`,
		`{"system":"i3-540","version":4,"kind":"tree"}`,
		`{"system":"i3-540","version":5,"kind":"quadratic"}`,
		`{"system":"i3-540","version":1,"kind":"bilinear"}`,
		`{"version":5,"kind":"bilinear"}`,
		`{}`,
		`null`,
		``,
		`not json`,
		`[1,2,3]`,
		`{"system":"i7-2600K","version":5,"kind":"tree","parallel":{}}`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data string) {
		p, err := UnmarshalPredictor([]byte(data))
		if err != nil {
			return
		}
		if _, ok := hw.ByName(p.System().Name); !ok {
			t.Fatalf("decoded predictor bound to unknown system %q", p.System().Name)
		}
		out, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("re-marshal failed: %v", err)
		}
		back, err := UnmarshalPredictor(out)
		if err != nil {
			t.Fatalf("re-marshaled file does not decode: %v", err)
		}
		if back.System().Name != p.System().Name {
			t.Fatalf("round trip changed system: %s vs %s", p.System().Name, back.System().Name)
		}
	})
}
