package wavefront_test

import (
	"fmt"

	"repro/wavefront"
)

// Example computes a small Smith-Waterman alignment with the wavefront
// pattern library: define a kernel, allocate the grid, run it on the
// host CPU, and read the score out of the final cell.
func Example() {
	query := []byte("GATTACA")
	ref := []byte("GCATGCGATTACA")
	k := wavefront.NewSeqCompareWith(query, ref)
	g := wavefront.NewRectGrid(len(query), len(ref), 0)
	wavefront.RunSerial(k, g)
	fmt.Printf("aligned %dx%d cells, score %d\n",
		g.Rows(), g.Cols(), g.B(g.Rows()-1, g.Cols()-1))
	// Output:
	// aligned 7x13 cells, score 14
}

// ExampleNewRectGrid shows the rectangular grid shape: a rows x cols
// array has rows+cols-1 anti-diagonals whose parallelism profile is
// trapezoidal rather than the square's triangular one.
func ExampleNewRectGrid() {
	g := wavefront.NewRectGrid(600, 1400, 1)
	k := wavefront.NewSynthetic(10, 1)
	inst := wavefront.RectInstanceOf(g.Rows(), g.Cols(), k)
	fmt.Printf("shape %dx%d, square=%v\n", g.Rows(), g.Cols(), inst.Square())
	fmt.Printf("anti-diagonals: %d (widest %d cells)\n", inst.NumDiags(), inst.MinSide())
	// Output:
	// shape 600x1400, square=false
	// anti-diagonals: 1999 (widest 600 cells)
}

// ExampleTuner_Predict is the paper's deployment path: train an
// autotuner for a modeled system on the synthetic application, then
// predict tuned parameters for an unseen application instance (here the
// Nash kernel at dim 1900).
func ExampleTuner_Predict() {
	sys, _ := wavefront.SystemByName("i7-2600K")
	sr, err := wavefront.Exhaustive(sys, wavefront.QuickSpace())
	if err != nil {
		panic(err)
	}
	tuner, err := wavefront.Train(sr, wavefront.DefaultTrainOptions())
	if err != nil {
		panic(err)
	}

	k := wavefront.NewNash(2)
	inst := wavefront.InstanceOf(1900, k)
	pred := tuner.Predict(inst)
	fmt.Printf("serial: %v\n", pred.Serial)
	fmt.Printf("offloads to GPU: %v\n", pred.Par.GPUCount() > 0)
	fmt.Printf("valid cpu-tile: %v\n", pred.Par.CPUTile >= 1 && pred.Par.CPUTile <= 1900)
	// Output:
	// serial: false
	// offloads to GPU: true
	// valid cpu-tile: true
}
