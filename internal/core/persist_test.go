package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/hw"
	"repro/internal/plan"
)

func TestTunerSaveLoadRoundTrip(t *testing.T) {
	sys := hw.I7_2600K()
	sr, err := Exhaustive(sys, tinySpace(), SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	orig, err := Train(sr, DefaultTrainOptions())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tuner.json")
	if err := SavePredictor(path, orig); err != nil {
		t.Fatal(err)
	}
	back, err := LoadPredictor(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.System().Name != sys.Name {
		t.Errorf("system = %q, want %q", back.System().Name, sys.Name)
	}
	if back.(*Tuner).Report != orig.Report {
		t.Error("training report changed across round trip")
	}
	// Predictions must be identical for a spread of instances.
	for _, inst := range []plan.Instance{
		{Dim: 500, TSize: 10, DSize: 1},
		{Dim: 900, TSize: 777, DSize: 3},
		{Dim: 2500, TSize: 11000, DSize: 5},
		{Dim: 1500, TSize: 0.5, DSize: 0},
	} {
		a, b := orig.Predict(inst), back.Predict(inst)
		if a != b {
			t.Errorf("%v: prediction changed: %v vs %v", inst, a, b)
		}
	}
}

func TestLoadTunerErrors(t *testing.T) {
	if _, err := LoadPredictor(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file must error")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	writeFile(t, bad, `{"system":"nonexistent","version":5,"kind":"tree"}`)
	if _, err := LoadPredictor(bad); err == nil {
		t.Error("unknown system must error")
	}
	verMismatch := filepath.Join(t.TempDir(), "ver.json")
	writeFile(t, verMismatch, `{"system":"i3-540","version":99,"kind":"tree"}`)
	if _, err := LoadPredictor(verMismatch); err == nil {
		t.Error("version mismatch must error")
	}
	missingModels := filepath.Join(t.TempDir(), "empty.json")
	writeFile(t, missingModels, `{"system":"i3-540","version":5,"kind":"tree"}`)
	if _, err := LoadPredictor(missingModels); err == nil {
		t.Error("missing models must error")
	}
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestUnmarshalPredictorKindErrors covers the envelope error paths: a
// tuner file must be version 5 with kind "tree". Kind errors name the
// kind; null fails the version check.
func TestUnmarshalPredictorKindErrors(t *testing.T) {
	for _, kind := range []string{"bilinear", "quadratic"} {
		doc := `{"system":"i3-540","version":5,"kind":"` + kind + `"}`
		if _, err := UnmarshalPredictor([]byte(doc)); err == nil {
			t.Errorf("kind %q must error", kind)
		} else if !strings.Contains(err.Error(), kind) {
			t.Errorf("error %q does not name the kind %q", err, kind)
		}
	}
	for _, doc := range []string{
		`{"system":"i3-540","version":5}`,
		`{"system":"i3-540","version":1,"kind":"tree"}`,
		`{"system":"i3-540","version":1}`,
		`null`,
	} {
		if _, err := UnmarshalPredictor([]byte(doc)); err == nil {
			t.Errorf("%s must error", doc)
		}
	}
}

// TestLoadTunerRejectsV2 checks that a version 2 file, whose band and
// halo trees predict raw cell counts rather than fractions, is refused
// by its version with a request to retrain, even when its models are
// complete.
func TestLoadTunerRejectsV2(t *testing.T) { checkRejectsVersion(t, 2) }

// TestLoadTunerRejectsV3 checks that a version 3 file, whose models
// read raw dim and tsize rather than their logs, is refused the same
// way.
func TestLoadTunerRejectsV3(t *testing.T) { checkRejectsVersion(t, 3) }

// TestLoadTunerRejectsV4 checks that a version 4 file, whose halo tree
// also reads cpu-tile and the band fraction, is refused the same way.
func TestLoadTunerRejectsV4(t *testing.T) { checkRejectsVersion(t, 4) }

// checkRejectsVersion relabels a complete current tuner file as
// version v and requires the decoder to refuse it by its version with
// a request to retrain.
func checkRejectsVersion(t *testing.T, v int) {
	t.Helper()
	data, err := json.Marshal(trainedTree(t))
	if err != nil {
		t.Fatal(err)
	}
	cur := fmt.Sprintf(`"version":%d`, tunerFormatVersion)
	old := bytes.Replace(data, []byte(cur), []byte(fmt.Sprintf(`"version":%d`, v)), 1)
	if bytes.Equal(old, data) {
		t.Fatalf("tuner file carries no %s: %s", cur, data)
	}
	_, err = UnmarshalPredictor(old)
	if err == nil {
		t.Fatalf("version %d tuner file accepted", v)
	}
	for _, want := range []string{fmt.Sprintf("version %d", v), "wavetrain -system S -save FILE"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

// treeOpts are the "opts" objects version 5 tuner files stored after
// each tree's feature names while the learners took options, keyed by
// the tree. Every such file was written at the one configuration the
// learners now train with.
var treeOpts = []struct{ key, opts string }{
	{`"cpu_tile":`, m5OptsJSON},
	{`"gpu_tile":`, `{"MinLeaf":2,"MaxDepth":20,"PruneFraction":0.3333333333333333,"Seed":1}`},
	{`"band":`, m5OptsJSON},
	{`"halo":`, m5OptsJSON},
}

const m5OptsJSON = `{"MinLeaf":4,"SDStop":0.05,"MaxDepth":20,"Ridge":0.001,"Smooth":true,"SmoothK":15,"MaxThresholds":64}`

// withTreeOpts returns the version 5 tuner file doc with each tree's
// "opts" object put back where older version 5 files had it.
func withTreeOpts(t testing.TB, doc []byte) []byte {
	t.Helper()
	s := string(doc)
	for _, tree := range treeOpts {
		i := strings.Index(s, tree.key)
		if i < 0 {
			t.Fatalf("tuner file has no %s tree: %s", tree.key, doc)
		}
		names := strings.Index(s[i:], "],")
		if names < 0 {
			t.Fatalf("%s tree has no feature names: %s", tree.key, doc)
		}
		j := i + names + 1
		s = s[:j] + `,"opts":` + tree.opts + s[j:]
	}
	return []byte(s)
}

// TestV5FilesWithOptsDecode checks that version 5 files written while
// the trees stored their options still decode to the same tuner: each
// shipped factory file with the "opts" objects put back (the bytes that
// file had in that spelling) decodes, and marshaling the result gives
// the shipped bytes again.
func TestV5FilesWithOptsDecode(t *testing.T) {
	for _, sys := range hw.Systems() {
		shipped, err := os.ReadFile(filepath.Join("..", "service", "factory", "full", sys.Name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		p, err := UnmarshalPredictor(withTreeOpts(t, shipped))
		if err != nil {
			t.Fatalf("%s: %v", sys.Name, err)
		}
		got, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, shipped) {
			t.Errorf("%s: the file with opts decodes to\n%s\nwant the shipped\n%s", sys.Name, got, shipped)
		}
	}
}
