// Command wavetrain trains the machine-learned autotuner for a modeled
// system from an exhaustive search of the synthetic application
// (Section 3.1), one M5 tree per regression target with default options,
// reports model quality, and prints the learned halo model (Figure 9).
// Without -from it searches only the instances training samples, on the
// full Table 3 space with the cpu-tile axis widened by 16 and 32
// (core.ServingSpace), so -save writes the factory tuner waved serves.
//
// Usage:
//
//	wavetrain [-system i7-2600K] [-from sweep.csv]
//	wavetrain -system S -save tuner.json
//	wavetrain -system S -from sweep.csv -save tuner.json
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/hw"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("wavetrain: ")
	sysName := flag.String("system", "i7-2600K", "system to train for")
	save := flag.String("save", "", "write the trained tuner to this JSON file")
	from := flag.String("from", "", "train from a wavesweep CSV instead of searching")
	flag.Parse()

	sys, ok := hw.ByName(*sysName)
	if !ok {
		log.Fatalf("unknown system %q", *sysName)
	}
	var tuner *core.Tuner
	var ctx *experiments.Context
	if *from != "" {
		f, err := os.Open(*from)
		if err != nil {
			log.Fatal(err)
		}
		sr, err := core.ReadCSV(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		if sr.Sys.Name != sys.Name {
			log.Fatalf("CSV was swept on %s, not %s", sr.Sys.Name, sys.Name)
		}
		if tuner, err = core.Train(sr, core.DefaultTrainOptions()); err != nil {
			log.Fatal(err)
		}
	} else {
		cfg := experiments.Full()
		cfg.Space = core.ServingSpace(cfg.Space)
		cfg.Systems = []hw.System{sys}
		ctx = experiments.NewContext(cfg)
		var err error
		if tuner, err = ctx.Tuner(sys); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("trained tuner for %s\n\n", sys.Name)
	if ctx != nil {
		// Figure 9 ends with the accuracy report.
		fig9, err := ctx.Fig9(sys)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(fig9)
	} else {
		fmt.Printf("%s\n%s\n\n", tuner.Halo.Render("halo"), tuner.Report)
	}

	if *save != "" {
		if err := core.SavePredictor(*save, tuner); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("saved tuner to %s\n", *save)
	}
}
