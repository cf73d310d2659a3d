package cpuexec

import (
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/grid"
	"repro/internal/kernels"
)

func TestParallelMatchesSerial(t *testing.T) {
	// The tiled parallel executor must produce bit-identical results to
	// the serial sweep for every kernel and tile size.
	for _, k := range []kernels.Kernel{
		kernels.NewSynthetic(3, 2),
		kernels.NewNash(1),
		kernels.NewSeqCompare(),
		kernels.NewKnapsack(33),
	} {
		want := grid.NewRect(33, 33, k.DSize())
		RunSerial(k, want)
		for _, ct := range []int{1, 2, 4, 8, 10, 33} {
			got := grid.NewRect(33, 33, k.DSize())
			ex := New(4)
			if err := ex.Run(k, got, ct); err != nil {
				t.Fatalf("%s ct=%d: %v", k.Name(), ct, err)
			}
			if !got.Equal(want) {
				t.Errorf("%s ct=%d: parallel result differs from serial", k.Name(), ct)
			}
		}
	}
}

func TestParallelMatchesSerialProperty(t *testing.T) {
	// Property over random shapes: any dim, tile and worker count agree
	// with the serial reference.
	f := func(rawDim, rawCt, rawW uint8) bool {
		dim := int(rawDim)%40 + 1
		ct := int(rawCt)%dim + 1
		w := int(rawW)%6 + 1
		k := kernels.NewSynthetic(2, 1)
		want := grid.NewRect(dim, dim, 1)
		RunSerial(k, want)
		got := grid.NewRect(dim, dim, 1)
		if err := New(w).Run(k, got, ct); err != nil {
			return false
		}
		return got.Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// runDiags computes diagonals [lo, hi] of g serially through a
// diagonal-range frontier, the phase-restricted reference the engine
// uses for phases 1 and 3.
func runDiags(t *testing.T, k kernels.Kernel, g *grid.Grid, lo, hi int) {
	t.Helper()
	if err := RunSerialFrontier(k, g, grid.NewDiagRangeFrontier(g.Rows(), g.Cols(), lo, hi)); err != nil {
		t.Fatal(err)
	}
}

func TestThreePhaseComposition(t *testing.T) {
	// Running the three phases of the hybrid strategy back to back must
	// equal one full sweep: phase boundaries cut along diagonals.
	k := kernels.NewSynthetic(2, 1)
	dim := 25
	want := grid.NewRect(dim, dim, 1)
	RunSerial(k, want)

	got := grid.NewRect(dim, dim, 1)
	d := grid.NumDiagsRect(dim, dim)
	runDiags(t, k, got, 0, 9)
	runDiags(t, k, got, 10, 30) // the "GPU" band
	runDiags(t, k, got, 31, d-1)
	if !got.Equal(want) {
		t.Error("three-phase composition differs from full sweep")
	}
}

func TestRunSerialDiagRangeOnlyTouchesRange(t *testing.T) {
	k := kernels.NewSynthetic(1, 0)
	dim := 12
	g := grid.NewRect(dim, dim, 0)
	runDiags(t, k, g, 5, 8)
	for r := 0; r < dim; r++ {
		for c := 0; c < dim; c++ {
			d := r + c
			if (d < 5 || d > 8) && g.A(r, c) != 0 {
				t.Fatalf("cell (%d,%d) outside range was written", r, c)
			}
			if d >= 5 && d <= 8 && g.A(r, c) == 0 {
				t.Fatalf("cell (%d,%d) inside range was skipped", r, c)
			}
		}
	}
}

func TestRunSerialDiagRangeClampsBounds(t *testing.T) {
	k := kernels.NewSynthetic(1, 0)
	g := grid.NewRect(8, 8, 0)
	// Out-of-range lo/hi must clamp rather than fail.
	runDiags(t, k, g, -5, 1000)
	want := grid.NewRect(8, 8, 0)
	RunSerial(k, want)
	if !g.Equal(want) {
		t.Error("clamped full range differs from serial")
	}
}

func TestRunSerialDiagRangeEmpty(t *testing.T) {
	k := kernels.NewSynthetic(1, 0)
	g := grid.NewRect(8, 8, 0)
	runDiags(t, k, g, 6, 5)
	for _, v := range g.IntA {
		if v != 0 {
			t.Fatal("empty range must compute nothing")
		}
	}
}

// upRightKernel declares a causal stencil that is not monotone: besides
// its west and north neighbours, cell (r, c) reads (r-2, c+1), which a
// row-major tile reaches before the tile to its right has computed it.
// It counts every read of a cell not yet computed.
type upRightKernel struct {
	cols  int
	done  []atomic.Bool
	early atomic.Int64
}

var upRightStencil = grid.Stencil{{DR: 0, DC: -1}, {DR: -1, DC: 0}, {DR: -2, DC: 1}}

func newUpRightKernel(rows, cols int) *upRightKernel {
	return &upRightKernel{cols: cols, done: make([]atomic.Bool, rows*cols)}
}

func (k *upRightKernel) Name() string { return "upright" }

func (k *upRightKernel) TSize() float64 { return 1 }

func (k *upRightKernel) DSize() int { return 0 }

func (k *upRightKernel) Stencil() grid.Stencil { return upRightStencil }

func (k *upRightKernel) Compute(g *grid.Grid, r, c int) {
	sum := int64(r*k.cols + c)
	for _, o := range upRightStencil {
		pr, pc := r+o.DR, c+o.DC
		if pr < 0 || pc < 0 || pc >= k.cols {
			continue
		}
		if !k.done[pr*k.cols+pc].Load() {
			k.early.Add(1)
			continue
		}
		sum = sum*31 + g.A(pr, pc)
	}
	g.SetA(r, c, sum)
	k.done[r*k.cols+c].Store(true)
}

// TestRunGatesNonMonotoneStencil: Run schedules a kernel whose stencil
// points up and right cell by cell, so no cell is read before it is
// computed at any worker count or tile size.
func TestRunGatesNonMonotoneStencil(t *testing.T) {
	const rows, cols = 21, 26
	ref := newUpRightKernel(rows, cols)
	want := grid.NewRect(rows, cols, ref.DSize())
	RunSerial(ref, want)
	if n := ref.early.Load(); n != 0 {
		t.Fatalf("serial reference read %d cells before computing them", n)
	}
	for _, w := range []int{1, 2, 4} {
		ex := New(w)
		for _, ct := range []int{1, 2, 3, 8} {
			k := newUpRightKernel(rows, cols)
			got := grid.NewRect(rows, cols, k.DSize())
			if err := ex.Run(k, got, ct); err != nil {
				t.Fatalf("w=%d ct=%d: %v", w, ct, err)
			}
			if n := k.early.Load(); n != 0 {
				t.Errorf("w=%d ct=%d: %d reads of cells not yet computed", w, ct, n)
			}
			if !got.Equal(want) {
				t.Errorf("w=%d ct=%d: result differs from serial", w, ct)
			}
		}
		ex.Close()
	}
}

func TestRunRejectsBadTile(t *testing.T) {
	k := kernels.NewSynthetic(1, 0)
	g := grid.NewRect(8, 8, 0)
	if err := New(1).Run(k, g, 0); err == nil {
		t.Error("ct=0 must be rejected")
	}
	if err := New(1).Run(k, g, 9); err == nil {
		t.Error("ct>dim must be rejected")
	}
}

func TestDefaultWorkerCount(t *testing.T) {
	if New(0).workers < 1 {
		t.Error("default worker count must be positive")
	}
	if New(7).workers != 7 {
		t.Error("explicit worker count not honored")
	}
}

func TestSerialDiagRangeMatchesRowMajorPrefix(t *testing.T) {
	// Computing diagonals [0, hi] serially must agree with a row-major
	// sweep restricted to those diagonals.
	k := kernels.NewSeqCompare()
	dim := 16
	a := grid.NewRect(dim, dim, 0)
	runDiags(t, k, a, 0, 12)
	b := grid.NewRect(dim, dim, 0)
	for r := 0; r < dim; r++ {
		for c := 0; c < dim; c++ {
			if r+c <= 12 {
				k.Compute(b, r, c)
			}
		}
	}
	if !a.Equal(b) {
		t.Error("diagonal-prefix execution differs from row-major prefix")
	}
}

func TestExecutorReuseAndClose(t *testing.T) {
	// One executor across many runs must stay correct (persistent pool).
	k := kernels.NewSynthetic(2, 1)
	want := grid.NewRect(30, 30, 1)
	RunSerial(k, want)
	ex := New(3)
	defer ex.Close()
	for i := 0; i < 10; i++ {
		g := grid.NewRect(30, 30, 1)
		if err := ex.Run(k, g, 5); err != nil {
			t.Fatal(err)
		}
		if !g.Equal(want) {
			t.Fatalf("run %d differs from serial", i)
		}
	}
}

func TestSingleWorkerExecutor(t *testing.T) {
	k := kernels.NewSeqCompare()
	want := grid.NewRect(25, 25, 0)
	RunSerial(k, want)
	ex := New(1)
	defer ex.Close()
	g := grid.NewRect(25, 25, 0)
	if err := ex.Run(k, g, 4); err != nil {
		t.Fatal(err)
	}
	if !g.Equal(want) {
		t.Error("single-worker run differs from serial")
	}
}
