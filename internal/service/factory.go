package service

import (
	"embed"
	"io/fs"
)

// factoryFiles are the tuners the daemon serves unless told otherwise.
// Each file is json.Marshal of core.TrainFromSpace(sys,
// core.ServingSpace(core.DefaultSpace()), core.DefaultTrainOptions())
// for one Table 4 system. Training is deterministic, so the daemon
// ships its tuners instead of training them at every start, as the
// paper trains once per platform and then only predicts. Regenerate a
// file with
//
//	go run ./cmd/wavetrain -system S -save internal/service/factory/full/S.json
//
// TestFactoryTuners fails when training no longer gives a file's bytes.
//
//go:embed factory/full/*.json
var factoryFiles embed.FS

// FactoryTuners returns the shipped tuner files, one <system>.json per
// Table 4 system, for NewDirSource: trained on the default Table 3
// space with the serving cpu-tile axis (core.ServingSpace).
func FactoryTuners() fs.FS {
	sub, err := fs.Sub(factoryFiles, "factory/full")
	if err != nil {
		panic(err) // a constant valid path
	}
	return sub
}
