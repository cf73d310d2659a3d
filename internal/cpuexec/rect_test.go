package cpuexec

import (
	"testing"
	"testing/quick"

	"repro/internal/grid"
	"repro/internal/kernels"
)

func TestRectParallelMatchesSerial(t *testing.T) {
	// The tiled parallel executor must produce bit-identical results to
	// the serial sweep on rectangular grids, for every kernel and tile
	// size, in both orientations (tall and wide).
	for _, shape := range [][2]int{{17, 41}, {41, 17}, {1, 29}, {29, 1}, {5, 64}} {
		rows, cols := shape[0], shape[1]
		for _, k := range []kernels.Kernel{
			kernels.NewSynthetic(3, 2),
			kernels.NewNash(1),
			kernels.NewSeqCompare(),
			kernels.NewKnapsack(rows),
		} {
			want := grid.NewRect(rows, cols, k.DSize())
			RunSerial(k, want)
			for _, ct := range []int{1, 2, 3, 7, 16, 41} {
				if maxSide := max(rows, cols); ct > maxSide {
					continue
				}
				got := grid.NewRect(rows, cols, k.DSize())
				ex := New(4)
				err := ex.Run(k, got, ct)
				ex.Close()
				if err != nil {
					t.Fatalf("%dx%d %s ct=%d: %v", rows, cols, k.Name(), ct, err)
				}
				if !got.Equal(want) {
					t.Errorf("%dx%d %s ct=%d: parallel result differs from serial",
						rows, cols, k.Name(), ct)
				}
			}
		}
	}
}

func TestRectParallelMatchesSerialProperty(t *testing.T) {
	// Property over random rectangular shapes: any rows x cols, tile and
	// worker count agree with the serial reference bit for bit.
	f := func(rawRows, rawCols, rawCt, rawW uint8) bool {
		rows := int(rawRows)%40 + 1
		cols := int(rawCols)%40 + 1
		if rows == cols {
			cols = rows%40 + 1 // force a rectangular shape
		}
		maxSide := rows
		if cols > maxSide {
			maxSide = cols
		}
		ct := int(rawCt)%maxSide + 1
		w := int(rawW)%6 + 1
		k := kernels.NewSynthetic(2, 1)
		want := grid.NewRect(rows, cols, 1)
		RunSerial(k, want)
		got := grid.NewRect(rows, cols, 1)
		ex := New(w)
		defer ex.Close()
		if err := ex.Run(k, got, ct); err != nil {
			return false
		}
		return got.Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestRectSerialDiagRangeCoversPrefix(t *testing.T) {
	// Diagonal-range execution on a rectangular grid must agree with a
	// row-major sweep restricted to the same diagonals.
	k := kernels.NewSeqCompare()
	rows, cols := 9, 21
	a := grid.NewRect(rows, cols, 0)
	runDiags(t, k, a, 0, 14)
	b := grid.NewRect(rows, cols, 0)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if r+c <= 14 {
				k.Compute(b, r, c)
			}
		}
	}
	if !a.Equal(b) {
		t.Error("rect diagonal-prefix execution differs from row-major prefix")
	}
}

func TestRectThreePhaseComposition(t *testing.T) {
	// Phase-restricted runs over a rectangular grid compose into a full
	// sweep exactly as on square grids.
	k := kernels.NewSynthetic(2, 1)
	rows, cols := 14, 33
	want := grid.NewRect(rows, cols, 1)
	RunSerial(k, want)

	got := grid.NewRect(rows, cols, 1)
	d := grid.NumDiagsRect(rows, cols)
	runDiags(t, k, got, 0, 11)
	runDiags(t, k, got, 12, 30)
	runDiags(t, k, got, 31, d-1)
	if !got.Equal(want) {
		t.Error("rect three-phase composition differs from full sweep")
	}
}
