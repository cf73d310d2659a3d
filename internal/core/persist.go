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

// tunerFormatVersion is the tuner file format: JSON with "version": 5
// and "kind": "tree". Version 5's halo tree reads only log(dim),
// log(tsize) and dsize where version 4's also read cpu-tile and band,
// and version 4 models read log(dim) and log(tsize) where version 3
// read them raw, so an older file is rejected with a request to
// retrain, as is any other version or kind.
const tunerFormatVersion = 5

// tunerDTO is the on-disk form of a trained tree tuner. The system is
// stored by name and re-resolved on load, so model files stay small and
// the hardware model always comes from the library version in use.
type tunerDTO struct {
	System   string      `json:"system"`
	Kind     string      `json:"kind"`
	Parallel *ml.SVM     `json:"parallel"`
	CPUTile  *ml.M5Tree  `json:"cpu_tile"`
	GPUTile  *ml.REPTree `json:"gpu_tile"`
	Band     *ml.M5Tree  `json:"band"`
	Halo     *ml.M5Tree  `json:"halo"`
	Report   TrainReport `json:"report"`
	Version  int         `json:"version"`
}

// MarshalJSON implements json.Marshaler.
func (t *Tuner) MarshalJSON() ([]byte, error) {
	return json.Marshal(tunerDTO{
		System: t.Sys.Name, Kind: KindTree, Parallel: t.Parallel, CPUTile: t.CPUTile,
		GPUTile: t.GPUTile, Band: t.Band, Halo: t.Halo, Report: t.Report,
		Version: tunerFormatVersion,
	})
}

// UnmarshalJSON implements json.Unmarshaler.
func (t *Tuner) UnmarshalJSON(data []byte) error {
	var d tunerDTO
	if err := json.Unmarshal(data, &d); err != nil {
		return fmt.Errorf("core: decoding tuner: %w", err)
	}
	if d.Version != tunerFormatVersion {
		return fmt.Errorf("core: tuner format version %d, want %d; retrain the tuner (wavetrain -system S -save FILE)",
			d.Version, tunerFormatVersion)
	}
	if d.Kind != KindTree {
		return fmt.Errorf("core: unknown predictor kind %q", d.Kind)
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

// SavePredictor writes a predictor to path as compact JSON, the bytes
// json.Marshal gives.
func SavePredictor(path string, p Predictor) error {
	data, err := json.Marshal(p)
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

// UnmarshalPredictor decodes a tuner file.
func UnmarshalPredictor(data []byte) (Predictor, error) {
	t := &Tuner{}
	if err := json.Unmarshal(data, t); err != nil {
		return nil, err
	}
	return t, nil
}

// LoadPredictor reads a tuner saved by SavePredictor.
func LoadPredictor(path string) (Predictor, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("core: reading tuner: %w", err)
	}
	return UnmarshalPredictor(data)
}
