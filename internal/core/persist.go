package core

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/atomicfile"
	"repro/internal/hw"
	"repro/internal/ml"
)

// Tuner files are versioned JSON with a kind discriminator:
//
//	v1 — tree ensemble only, no "kind" field.
//	v2 — adds "kind" ("tree" or "bilinear") selecting the backend.
//
// v1 files still load (as trees); files newer than v2 are rejected.
const (
	tunerFormatVersion    = 2
	tunerFormatVersionV1  = 1
	tunerFormatVersionMin = tunerFormatVersionV1
)

// tunerDTO is the on-disk form of a trained tree tuner. The system is
// stored by name and re-resolved on load, so model files stay small and
// the hardware model always comes from the library version in use.
type tunerDTO struct {
	System   string      `json:"system"`
	Kind     string      `json:"kind,omitempty"`
	Parallel *ml.SVM     `json:"parallel"`
	CPUTile  *ml.M5Tree  `json:"cpu_tile"`
	GPUTile  *ml.REPTree `json:"gpu_tile"`
	Band     *ml.M5Tree  `json:"band"`
	Halo     *ml.M5Tree  `json:"halo"`
	Report   TrainReport `json:"report"`
	Version  int         `json:"version"`
}

// bilinearDTO is the on-disk form of a bilinear tuner (v2 only).
type bilinearDTO struct {
	System   string      `json:"system"`
	Kind     string      `json:"kind"`
	Parallel *ml.Linear  `json:"parallel"`
	CPUTile  *ml.Linear  `json:"cpu_tile"`
	GPUTile  *ml.Linear  `json:"gpu_tile"`
	Band     *ml.Linear  `json:"band"`
	Halo     *ml.Linear  `json:"halo"`
	Report   TrainReport `json:"report"`
	Version  int         `json:"version"`
}

// checkTunerVersion validates the version/kind envelope of a tuner file
// against the kind a decoder expects ("" accepts any known kind).
func checkTunerVersion(version int, kind string) error {
	if version < tunerFormatVersionMin || version > tunerFormatVersion {
		return fmt.Errorf("core: tuner format version %d, want %d..%d",
			version, tunerFormatVersionMin, tunerFormatVersion)
	}
	switch kind {
	case "", KindTree, KindBilinear:
	default:
		return fmt.Errorf("core: unknown predictor kind %q", kind)
	}
	if kind == KindBilinear && version < tunerFormatVersion {
		return fmt.Errorf("core: bilinear tuner requires format version %d, got %d",
			tunerFormatVersion, version)
	}
	return nil
}

// MarshalJSON implements json.Marshaler.
func (t *Tuner) MarshalJSON() ([]byte, error) {
	return json.Marshal(tunerDTO{
		System: t.Sys.Name, Kind: KindTree, Parallel: t.Parallel, CPUTile: t.CPUTile,
		GPUTile: t.GPUTile, Band: t.Band, Halo: t.Halo, Report: t.Report,
		Version: tunerFormatVersion,
	})
}

// UnmarshalJSON implements json.Unmarshaler. A v1 file (no kind) is
// accepted as a tree tuner.
func (t *Tuner) UnmarshalJSON(data []byte) error {
	var d tunerDTO
	if err := json.Unmarshal(data, &d); err != nil {
		return fmt.Errorf("core: decoding tuner: %w", err)
	}
	if err := checkTunerVersion(d.Version, d.Kind); err != nil {
		return err
	}
	if d.Kind != "" && d.Kind != KindTree {
		return fmt.Errorf("core: tuner file holds a %q model, not %q", d.Kind, KindTree)
	}
	sys, ok := hw.ByName(d.System)
	if !ok {
		return fmt.Errorf("core: tuner trained for unknown system %q", d.System)
	}
	if d.Parallel == nil || d.CPUTile == nil || d.GPUTile == nil || d.Band == nil || d.Halo == nil {
		return fmt.Errorf("core: tuner file missing models")
	}
	t.Sys = sys
	t.Parallel = d.Parallel
	t.CPUTile = d.CPUTile
	t.GPUTile = d.GPUTile
	t.Band = d.Band
	t.Halo = d.Halo
	t.Report = d.Report
	return nil
}

// MarshalJSON implements json.Marshaler.
func (t *BilinearTuner) MarshalJSON() ([]byte, error) {
	return json.Marshal(bilinearDTO{
		System: t.Sys.Name, Kind: KindBilinear, Parallel: t.Parallel, CPUTile: t.CPUTile,
		GPUTile: t.GPUTile, Band: t.Band, Halo: t.Halo, Report: t.Report,
		Version: tunerFormatVersion,
	})
}

// UnmarshalJSON implements json.Unmarshaler.
func (t *BilinearTuner) UnmarshalJSON(data []byte) error {
	var d bilinearDTO
	if err := json.Unmarshal(data, &d); err != nil {
		return fmt.Errorf("core: decoding bilinear tuner: %w", err)
	}
	if err := checkTunerVersion(d.Version, d.Kind); err != nil {
		return err
	}
	if d.Kind != KindBilinear {
		return fmt.Errorf("core: tuner file holds a %q model, not %q", d.Kind, KindBilinear)
	}
	sys, ok := hw.ByName(d.System)
	if !ok {
		return fmt.Errorf("core: tuner trained for unknown system %q", d.System)
	}
	if d.Parallel == nil || d.CPUTile == nil || d.GPUTile == nil || d.Band == nil || d.Halo == nil {
		return fmt.Errorf("core: tuner file missing models")
	}
	t.Sys = sys
	t.Parallel = d.Parallel
	t.CPUTile = d.CPUTile
	t.GPUTile = d.GPUTile
	t.Band = d.Band
	t.Halo = d.Halo
	t.Report = d.Report
	return nil
}

// Save writes the tuner to path as JSON.
func (t *Tuner) Save(path string) error { return savePredictorFile(path, t) }

// Save writes the tuner to path as JSON.
func (t *BilinearTuner) Save(path string) error { return savePredictorFile(path, t) }

// SavePredictor writes any predictor to path as JSON.
func SavePredictor(path string, p Predictor) error { return savePredictorFile(path, p) }

func savePredictorFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return fmt.Errorf("core: encoding tuner: %w", err)
	}
	// Replace the file atomically: a crash mid-save must leave the
	// previous tuner loadable, never a torn one.
	if err := atomicfile.Write(path, 0o644, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	}); err != nil {
		return fmt.Errorf("core: writing tuner: %w", err)
	}
	return nil
}

// LoadTuner reads a tree tuner saved by Save. Use LoadPredictor when the
// backend kind is not known in advance.
func LoadTuner(path string) (*Tuner, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("core: reading tuner: %w", err)
	}
	t := &Tuner{}
	if err := json.Unmarshal(data, t); err != nil {
		return nil, err
	}
	return t, nil
}

// tunerEnvelope peeks the version/kind discriminator of a tuner file.
type tunerEnvelope struct {
	Version int    `json:"version"`
	Kind    string `json:"kind"`
}

// UnmarshalPredictor decodes a tuner file of any kind: the version/kind
// envelope selects the backend, with v1 files (no kind) decoding as
// trees.
func UnmarshalPredictor(data []byte) (Predictor, error) {
	var env tunerEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("core: decoding tuner: %w", err)
	}
	if err := checkTunerVersion(env.Version, env.Kind); err != nil {
		return nil, err
	}
	switch env.Kind {
	case "", KindTree:
		t := &Tuner{}
		if err := json.Unmarshal(data, t); err != nil {
			return nil, err
		}
		return t, nil
	default: // KindBilinear; checkTunerVersion rejected everything else.
		t := &BilinearTuner{}
		if err := json.Unmarshal(data, t); err != nil {
			return nil, err
		}
		return t, nil
	}
}

// LoadPredictor reads a tuner of any kind saved by Save/SavePredictor.
func LoadPredictor(path string) (Predictor, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("core: reading tuner: %w", err)
	}
	return UnmarshalPredictor(data)
}
