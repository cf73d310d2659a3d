// Command wavesweep runs the exhaustive tuning-space exploration of the
// synthetic wavefront application on a modeled system (Section 4.1) and
// prints the Figure 5 heatmaps, optionally dumping every evaluated point
// as CSV (the app column of the dump names the synthetic trainer; see
// -apps for the full application catalog the trained tuner deploys on).
//
// Usage:
//
//	wavesweep [-system i7-2600K] [-full] [-csv points.csv]
//	wavesweep -apps
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/hw"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("wavesweep: ")
	sysName := flag.String("system", "i7-2600K", "system to sweep (i3-540, i7-2600K, i7-3820)")
	full := flag.Bool("full", false, "use the full Table 3 space instead of the quick one")
	csvPath := flag.String("csv", "", "write every evaluated point to this CSV file")
	listApps := flag.Bool("apps", false, "print the application catalog and exit")
	flag.Parse()

	if *listApps {
		fmt.Print(apps.RenderCatalog())
		return
	}

	sys, ok := hw.ByName(*sysName)
	if !ok {
		log.Fatalf("unknown system %q", *sysName)
	}
	cfg := experiments.Quick()
	if *full {
		cfg = experiments.Full()
	}
	cfg.Systems = []hw.System{sys}
	ctx := experiments.NewContext(cfg)

	sr, err := ctx.Search(sys)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exhaustive search on %s: %d instances, %d evaluations\n\n",
		sys.Name, len(sr.Instances), sr.Evaluations())

	for _, dsize := range []int{1, 5} {
		data, err := ctx.Fig5(sys, dsize)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(data.Render())
	}

	if *csvPath != "" {
		if err := writeCSV(sr, *csvPath); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s (%d points; reload with wavetrain -from)\n", *csvPath, sr.Evaluations())
	}
}

// writeCSV dumps every evaluated point of sr to path in the search-CSV
// format wavetrain -from reads.
func writeCSV(sr *core.SearchResult, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := sr.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
