package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/hw"
)

// TestFactoryTuners pins every shipped tuner file to the training that
// builds it: json.Marshal of core.TrainFromSpace on the serving form of
// the default space must give the embedded bytes exactly, and no other
// file ships. A training change that moves a served model fails here,
// and the failure names the command that regenerates the file.
func TestFactoryTuners(t *testing.T) {
	var names []string
	for _, sys := range hw.Systems() {
		names = append(names, sys.Name+".json")
		t.Run("full/"+sys.Name, func(t *testing.T) {
			got, err := json.Marshal(factoryTrained(t, sys))
			if err != nil {
				t.Fatal(err)
			}
			want, err := fs.ReadFile(FactoryTuners(), sys.Name+".json")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("trained tuner differs from the shipped file; if the change is meant, regenerate it with\n\tgo run ./cmd/wavetrain -system %s -save internal/service/factory/full/%s.json",
					sys.Name, sys.Name)
			}
		})
	}
	shipped, err := fs.Glob(factoryFiles, "factory/*/*")
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range names {
		names[i] = "factory/full/" + name
	}
	if !slices.Equal(shipped, names) {
		t.Errorf("shipped tuner files %v, want %v", shipped, names)
	}
}

// factoryTrained trains sys's tuner the way its factory file was.
func factoryTrained(t *testing.T, sys hw.System) *core.Tuner {
	t.Helper()
	tu, err := core.TrainFromSpace(sys, core.ServingSpace(core.DefaultSpace()), core.DefaultTrainOptions())
	if err != nil {
		t.Fatal(err)
	}
	return tu
}

// factoryKeys are tune requests over several apps, shapes and systems.
var factoryKeys = []string{
	`{"system":"i7-2600K","dim":1900,"app":"nash","params":{"rounds":2}}`,
	`{"system":"i7-2600K","dim":700,"tsize":200,"dsize":1}`,
	`{"system":"i3-540","dim":1100,"tsize":4000,"dsize":5}`,
	`{"system":"i3-540","rows":600,"cols":1400,"app":"seqcompare"}`,
	`{"system":"i7-3820","dim":2700,"app":"swaffine"}`,
	`{"system":"i7-3820","dim":500,"app":"nussinov"}`,
}

// tuneBodies boots a server on src and returns its raw tune response
// for each key.
func tuneBodies(t *testing.T, src TunerSource) []string {
	t.Helper()
	s, err := New(Config{Tuners: src})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	bodies := make([]string, len(factoryKeys))
	for i, key := range factoryKeys {
		resp, err := http.Post(ts.URL+"/v1/tune", "application/json", strings.NewReader(key))
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", key, resp.StatusCode, b)
		}
		bodies[i] = string(b)
	}
	return bodies
}

// TestDefaultTunersAreTrainedTuners: the zero Config serves exactly the
// plans of tuners trained the way the factory files were, a tuner
// directory overrides the factory tuners, and a file holding another
// system's tuner is rejected.
func TestDefaultTunersAreTrainedTuners(t *testing.T) {
	var trained []core.Predictor
	for _, sys := range hw.Systems() {
		trained = append(trained, factoryTrained(t, sys))
	}
	factory := tuneBodies(t, nil)
	want := tuneBodies(t, NewStaticSource(trained...))
	for i, key := range factoryKeys {
		if factory[i] != want[i] {
			t.Errorf("%s:\nfactory tuner %s\ntrained tuner %s", key, factory[i], want[i])
		}
	}

	// A directory of tuners replaces the factory ones: i7-2600K gets
	// the tiny tuner, the others their trained ones.
	dir := t.TempDir()
	tiny := tinyTuner(t)
	overrides := []core.Predictor{tiny}
	for _, p := range trained {
		if p.System().Name != tiny.Sys.Name {
			overrides = append(overrides, p)
		}
	}
	for _, p := range overrides {
		if err := core.SavePredictor(filepath.Join(dir, p.System().Name+".json"), p); err != nil {
			t.Fatal(err)
		}
	}
	fromDir := tuneBodies(t, NewDirSource(os.DirFS(dir)))
	want = tuneBodies(t, NewStaticSource(overrides...))
	differs := false
	for i, key := range factoryKeys {
		if fromDir[i] != want[i] {
			t.Errorf("%s:\ndirectory tuner %s\nsaved tuner     %s", key, fromDir[i], want[i])
		}
		differs = differs || fromDir[i] != factory[i]
	}
	if !differs {
		t.Error("the tuner directory served the factory plans on every key")
	}

	// A file named for one system holding another's tuner is rejected.
	if err := core.SavePredictor(filepath.Join(dir, "i3-540.json"), tiny); err != nil {
		t.Fatal(err)
	}
	_, err := NewDirSource(os.DirFS(dir)).Tuner(hw.I3_540())
	if wantErr := fmt.Sprintf("was trained for %s, not i3-540", tiny.Sys.Name); err == nil || !strings.Contains(err.Error(), wantErr) {
		t.Errorf("mismatched tuner file: err = %v, want one containing %q", err, wantErr)
	}
}
