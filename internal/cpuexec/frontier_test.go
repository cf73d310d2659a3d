package cpuexec

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/kernels"
)

// frontierKernels are the catalog kernels with interesting live regions:
// the masked pair plus a dense one, so the frontier paths are checked
// against both shapes of substrate.
func frontierKernels() []kernels.Kernel {
	return []kernels.Kernel{
		kernels.NewSynthetic(3, 2),
		kernels.NewNussinov(-1),
		kernels.NewMorphRecon(-1, 11),
		kernels.NewMorphRecon(200, 5), // sparse: ~22% live
	}
}

// TestRunSerialFrontierMatchesSerial: draining any frontier serially
// equals the row-major reference, for dense and irregular frontiers.
func TestRunSerialFrontierMatchesSerial(t *testing.T) {
	for _, k := range frontierKernels() {
		want := grid.NewRect(19, 23, k.DSize())
		RunSerial(k, want)
		rows, cols := want.Rows(), want.Cols()

		dense := grid.NewRect(rows, cols, k.DSize())
		if err := RunSerialFrontier(k, dense, grid.NewDiagFrontier(rows, cols)); err != nil {
			t.Fatalf("%s dense frontier: %v", k.Name(), err)
		}
		if !dense.Equal(want) {
			t.Errorf("%s: dense frontier result differs from serial", k.Name())
		}

		irr := grid.NewRect(rows, cols, k.DSize())
		f := grid.NewIrregularFrontier(rows, cols, kernels.StencilOf(k), kernels.LiveOf(k, rows, cols))
		if err := RunSerialFrontier(k, irr, f); err != nil {
			t.Fatalf("%s irregular frontier: %v", k.Name(), err)
		}
		if !irr.Equal(want) {
			t.Errorf("%s: irregular frontier result differs from serial", k.Name())
		}
	}
}

// TestRunFrontierMatchesSerial: the pooled frontier executor agrees with
// the serial reference across worker counts.
func TestRunFrontierMatchesSerial(t *testing.T) {
	for _, k := range frontierKernels() {
		want := grid.NewRect(26, 31, k.DSize())
		RunSerial(k, want)
		rows, cols := want.Rows(), want.Cols()
		for _, w := range []int{1, 3, 6} {
			ex := New(w)
			got := grid.NewRect(rows, cols, k.DSize())
			f := grid.NewIrregularFrontier(rows, cols, kernels.StencilOf(k), kernels.LiveOf(k, rows, cols))
			if err := ex.RunFrontier(context.Background(), k, got, f); err != nil {
				t.Fatalf("%s w=%d: %v", k.Name(), w, err)
			}
			if !got.Equal(want) {
				t.Errorf("%s w=%d: frontier result differs from serial", k.Name(), w)
			}
			ex.Close()
		}
	}
}

// TestRunIrregularMatchesSerial: the irregular entry point — cell-level
// and tiled — agrees with the serial reference for every kernel.
func TestRunIrregularMatchesSerial(t *testing.T) {
	for _, k := range frontierKernels() {
		want := grid.NewRect(29, 24, k.DSize())
		RunSerial(k, want)
		rows, cols := want.Rows(), want.Cols()
		ex := New(4)
		defer ex.Close()
		for _, ct := range []int{1, 2, 5, 8, 29} {
			got := grid.NewRect(rows, cols, k.DSize())
			if err := ex.RunIrregular(context.Background(), k, got, ct); err != nil {
				t.Fatalf("%s ct=%d: %v", k.Name(), ct, err)
			}
			if !got.Equal(want) {
				t.Errorf("%s ct=%d: irregular result differs from serial", k.Name(), ct)
			}
		}
	}
}

// TestRunFrontierEmptyAndSingle: a fully masked region computes nothing
// and reports success; a single-cell grid computes its one cell.
func TestRunFrontierEmptyAndSingle(t *testing.T) {
	k := kernels.NewSynthetic(2, 1)
	ex := New(2)
	defer ex.Close()

	g := grid.NewRect(6, 6, k.DSize())
	empty := grid.NewIrregularFrontier(6, 6, grid.DenseStencil(), func(r, c int) bool { return false })
	if err := ex.RunFrontier(context.Background(), k, g, empty); err != nil {
		t.Fatalf("empty frontier: %v", err)
	}
	if !g.Equal(grid.NewRect(6, 6, k.DSize())) {
		t.Error("empty frontier modified the grid")
	}

	one := grid.NewRect(1, 1, k.DSize())
	if err := ex.RunFrontier(context.Background(), k, one, grid.NewIrregularFrontier(1, 1, nil, nil)); err != nil {
		t.Fatalf("1x1 frontier: %v", err)
	}
	ref := grid.NewRect(1, 1, k.DSize())
	k.Compute(ref, 0, 0)
	if !one.Equal(ref) {
		t.Error("1x1 frontier did not compute its cell")
	}
}

// TestRunFrontierDeadEnd: a stencil that can never seed (every cell
// waits on a neighbour) must surface ErrFrontierStuck, not hang or
// silently succeed — serial and pooled alike.
func TestRunFrontierDeadEnd(t *testing.T) {
	k := kernels.NewSynthetic(2, 1)
	stuck := func() grid.Frontier {
		return grid.NewIrregularFrontier(4, 4, grid.Stencil{{DR: 0, DC: -1}, {DR: 0, DC: 1}}, nil)
	}
	g := grid.NewRect(4, 4, k.DSize())
	if err := RunSerialFrontier(k, g, stuck()); !errors.Is(err, ErrFrontierStuck) {
		t.Errorf("serial: err = %v, want ErrFrontierStuck", err)
	}
	ex := New(3)
	defer ex.Close()
	if err := ex.RunFrontier(context.Background(), k, g, stuck()); !errors.Is(err, ErrFrontierStuck) {
		t.Errorf("pooled: err = %v, want ErrFrontierStuck", err)
	}
}

// cancellingFrontier wraps a frontier and cancels a context after a
// fixed number of delivered steps, exercising mid-run cancellation.
type cancellingFrontier struct {
	inner  grid.Frontier
	cancel context.CancelFunc
	after  int
	seen   int
}

func (f *cancellingFrontier) Next() ([]grid.Cell, bool) {
	if f.seen == f.after {
		f.cancel()
	}
	f.seen++
	return f.inner.Next()
}
func (f *cancellingFrontier) Cells() int { return f.inner.Cells() }
func (f *cancellingFrontier) Steps() int { return f.inner.Steps() }

// TestRunFrontierCancel: cancellation before and during a run stops the
// executor at the next step barrier with the context's error.
func TestRunFrontierCancel(t *testing.T) {
	k := kernels.NewSynthetic(2, 1)
	ex := New(3)
	defer ex.Close()

	pre, cancel := context.WithCancel(context.Background())
	cancel()
	g := grid.NewRect(8, 8, k.DSize())
	err := ex.RunFrontier(pre, k, g, grid.NewDiagFrontier(8, 8))
	if !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled: err = %v, want context.Canceled", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f := &cancellingFrontier{inner: grid.NewDiagFrontier(20, 20), cancel: cancel, after: 5}
	err = ex.RunFrontier(ctx, k, grid.NewRect(20, 20, k.DSize()), f)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("mid-frontier: err = %v, want context.Canceled", err)
	}
	if f.seen >= f.inner.Steps() {
		t.Errorf("executor drained %d steps after cancellation", f.seen)
	}

	// RunIrregular honours cancellation too.
	ictx, icancel := context.WithCancel(context.Background())
	icancel()
	if err := ex.RunIrregular(ictx, k, grid.NewRect(8, 8, k.DSize()), 2); !errors.Is(err, context.Canceled) {
		t.Errorf("RunIrregular pre-cancelled: err = %v, want context.Canceled", err)
	}
}

// TestRunFrontierClosed: frontier entry points refuse a closed executor.
func TestRunFrontierClosed(t *testing.T) {
	k := kernels.NewSynthetic(2, 1)
	ex := New(2)
	ex.Close()
	g := grid.NewRect(4, 4, k.DSize())
	if err := ex.RunFrontier(context.Background(), k, g, grid.NewDiagFrontier(4, 4)); !errors.Is(err, ErrClosed) {
		t.Errorf("RunFrontier on closed executor: %v, want ErrClosed", err)
	}
	if err := ex.RunIrregular(context.Background(), k, g, 2); !errors.Is(err, ErrClosed) {
		t.Errorf("RunIrregular on closed executor: %v, want ErrClosed", err)
	}
}

// cancellingKernel computes like the kernel it wraps and cancels a
// context once it has computed after cells, so cancellation lands in
// the middle of a tiled run.
type cancellingKernel struct {
	kernels.Kernel
	cancel   context.CancelFunc
	after    int64
	computed atomic.Int64
}

func (k *cancellingKernel) Compute(g *grid.Grid, r, c int) {
	if k.computed.Add(1) == k.after {
		k.cancel()
	}
	k.Kernel.Compute(g, r, c)
}

// TestRunIrregularCancelMidRun: a kernel cancels its context partway
// through a tiled run. The run returns context.Canceled with cells left
// uncomputed, the same executor's next run equals serial, and closing
// the executor leaves no goroutine behind.
func TestRunIrregularCancelMidRun(t *testing.T) {
	const rows, cols = 48, 40
	inner := kernels.NewSynthetic(2, 1)
	want := grid.NewRect(rows, cols, inner.DSize())
	RunSerial(inner, want)
	before := runtime.NumGoroutine()
	ex := New(3)
	for _, ct := range []int{2, 8} {
		ctx, cancel := context.WithCancel(context.Background())
		k := &cancellingKernel{Kernel: inner, cancel: cancel, after: 200}
		err := ex.RunIrregular(ctx, k, grid.NewRect(rows, cols, inner.DSize()), ct)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("ct=%d: err = %v, want context.Canceled", ct, err)
		}
		if n := k.computed.Load(); n >= rows*cols {
			t.Errorf("ct=%d: all %d cells computed despite cancellation", ct, n)
		}
		got := grid.NewRect(rows, cols, inner.DSize())
		if err := ex.RunIrregular(context.Background(), inner, got, ct); err != nil {
			t.Fatalf("ct=%d: run after cancellation: %v", ct, err)
		}
		if !got.Equal(want) {
			t.Errorf("ct=%d: run after cancellation differs from serial", ct)
		}
	}
	ex.Close()
	// Close returns once every worker has signalled its exit (its
	// deferred wg.Done), not once the goroutine is gone; give the last
	// ones up to a second to finish unwinding. Yielding alone is not
	// enough under the race detector, so the wait sleeps.
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after Close, want at most the %d before", n, before)
	}
}

// TestRunIrregularSetupAllocs: the tiled irregular path sets up in a
// constant number of allocations, whatever the cell count — no per-cell
// dependency graph and no per-tile adjacency lists.
func TestRunIrregularSetupAllocs(t *testing.T) {
	k := kernels.NewMorphRecon(-1, 1)
	g := grid.New(256, k.DSize())
	ex := New(2)
	defer ex.Close()
	ctx := context.Background()
	allocs := testing.AllocsPerRun(5, func() {
		if err := ex.RunIrregular(ctx, k, g, 16); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 16 {
		t.Errorf("RunIrregular on 256x256 at ct=16 made %.0f allocations, want at most 16", allocs)
	}
}

// TestFrontierSchedulerStress drives several executors concurrently
// through the tile dataflow scheduler (Executor.Run and tiled
// RunIrregular) and the per-cell frontier; run under -race it shakes out
// data races in the scheduling (CI runs it explicitly in the race job).
// Run sees random rectangles, tiles from one cell up to the longer side
// (so past the shorter one), and pools with more workers than tiles.
func TestFrontierSchedulerStress(t *testing.T) {
	ks := frontierKernels()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i)))
			k := ks[i%len(ks)]
			ex := New(2 + 3*i)
			defer ex.Close()
			for rep := 0; rep < 8; rep++ {
				rows, cols := 1+rng.Intn(40), 1+rng.Intn(40)
				ct := 1 + rng.Intn(max(rows, cols))
				if rep == 0 {
					ct = max(rows, cols) // one tile: every worker but one idles
				}
				want := grid.NewRect(rows, cols, k.DSize())
				RunSerial(k, want)
				got := grid.NewRect(rows, cols, k.DSize())
				if err := ex.Run(k, got, ct); err != nil {
					t.Errorf("Run goroutine %d rep %d (%dx%d ct=%d): %v", i, rep, rows, cols, ct, err)
					return
				}
				if !got.Equal(want) {
					t.Errorf("Run goroutine %d rep %d (%dx%d ct=%d): result differs from serial", i, rep, rows, cols, ct)
					return
				}
			}
		}(i)
		go func(i int) {
			defer wg.Done()
			k := ks[i%len(ks)]
			want := grid.NewRect(40, 35, k.DSize())
			RunSerial(k, want)
			ex := New(1 + i%4)
			defer ex.Close()
			for rep := 0; rep < 8; rep++ {
				got := grid.NewRect(40, 35, k.DSize())
				var err error
				if rep%2 == 0 {
					err = ex.RunIrregular(context.Background(), k, got, 1+rep%7)
				} else {
					f := grid.NewIrregularFrontier(40, 35, kernels.StencilOf(k), kernels.LiveOf(k, 40, 35))
					err = ex.RunFrontier(context.Background(), k, got, f)
				}
				if err != nil {
					t.Errorf("goroutine %d rep %d: %v", i, rep, err)
					return
				}
				if !got.Equal(want) {
					t.Errorf("goroutine %d rep %d: result differs from serial", i, rep)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}
