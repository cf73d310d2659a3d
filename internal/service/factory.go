package service

import (
	"embed"
	"io/fs"
)

// factoryFiles are the tuners the daemon serves unless told otherwise.
// Each file is json.Marshal of core.TrainFromSpace(sys,
// core.ServingSpace(space), core.DefaultTrainOptions()) for one Table 4
// system, with space the quick (factory/quick) or the default Table 3
// space (factory/full). Training is deterministic, so the daemon ships
// its tuners instead of training them at every start, as the paper
// trains once per platform and then only predicts. Regenerate a file
// with
//
//	go run ./cmd/wavetrain -system S [-full] -save internal/service/factory/<quick|full>/S.json
//
// TestFactoryTuners fails when training no longer gives a file's bytes.
//
//go:embed factory/quick/*.json factory/full/*.json
var factoryFiles embed.FS

// FactoryTuners returns the shipped tuner files, one <system>.json per
// Table 4 system, for NewDirSource: trained on the default Table 3
// space when full is set, on the quick one otherwise, both with the
// serving cpu-tile axis (core.ServingSpace).
func FactoryTuners(full bool) fs.FS {
	dir := "factory/quick"
	if full {
		dir = "factory/full"
	}
	sub, err := fs.Sub(factoryFiles, dir)
	if err != nil {
		panic(err) // dir is a constant valid path
	}
	return sub
}
