// Command nash autotunes the paper's coarse-grained game-theoretic application.
// An exhaustive search of the synthetic application trains the tuner
// "in the factory"; deployment then predicts tuned parameters for unseen
// Nash instances and compares them against the simple schemes
// (Section 4.2, Figure 10).
package main

import (
	"fmt"
	"log"

	"repro/wavefront"
)

func main() {
	sys, _ := wavefront.SystemByName("i7-2600K")

	fmt.Printf("training autotuner for %s on the synthetic application...\n", sys.Name)
	search, err := wavefront.Exhaustive(sys, wavefront.QuickSpace())
	if err != nil {
		log.Fatal(err)
	}
	tuner, err := wavefront.Train(search, wavefront.DefaultTrainOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained (%d evaluations; min CV accuracy %.2f)\n\n",
		search.Evaluations(), tuner.Report.MinAccuracy())

	fmt.Println("deploying on Nash equilibrium instances:")
	for _, dim := range []int{700, 1400, 2100} {
		for _, rounds := range []int{1, 8} {
			k := wavefront.NewNash(rounds)
			inst := wavefront.InstanceOf(dim, k)
			pred, auto, serialNs, err := tuner.PredictTimed(inst)
			if err != nil {
				log.Fatal(err)
			}
			serial := serialNs / 1e9
			cpu, err := wavefront.Estimate(sys, inst, wavefront.CPUOnly(8))
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  dim=%-5d rounds=%-2d -> %-55v serial %7.2fs  cpu %6.2fs  tuned %6.2fs (%.1fx)\n",
				dim, rounds, pred, serial, cpu.RTimeSec(), auto/1e9, serial/(auto/1e9))
		}
	}
}
