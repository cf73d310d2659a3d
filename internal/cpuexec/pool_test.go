package cpuexec

import (
	"errors"
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/kernels"
)

// withTimeout fails the test instead of hanging forever if fn deadlocks —
// the regression mode of the run-after-close bug.
func withTimeout(t *testing.T, name string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: deadlocked (run after close must return an error, not hang)", name)
	}
}

func TestRunAfterCloseReturnsError(t *testing.T) {
	k := kernels.NewSynthetic(1, 0)
	withTimeout(t, "Run after Close", func() {
		ex := New(3)
		g := grid.NewRect(20, 20, 0)
		if err := ex.Run(k, g, 4); err != nil {
			t.Errorf("run before close: %v", err)
		}
		ex.Close()
		if err := ex.Run(k, g, 4); !errors.Is(err, ErrClosed) {
			t.Errorf("Run after Close = %v, want ErrClosed", err)
		}
	})
}

func TestPoolRunAfterCloseReturnsError(t *testing.T) {
	// The pool-level guard must hold even without the executor's
	// fast-path check (e.g. a close racing an in-flight run).
	withTimeout(t, "pool.run after close", func() {
		p := newPool(2)
		p.close()
		if err := p.run(8, func(int) {}); !errors.Is(err, ErrClosed) {
			t.Errorf("pool.run after close = %v, want ErrClosed", err)
		}
	})
}

func TestCloseIsIdempotentAndWaitsForWorkers(t *testing.T) {
	withTimeout(t, "double Close", func() {
		ex := New(4)
		g := grid.NewRect(30, 30, 0)
		if err := ex.Run(kernels.NewSynthetic(1, 0), g, 5); err != nil {
			t.Fatal(err)
		}
		// close waits for the workers to exit, so a second close (and any
		// later run) observes a fully quiesced pool.
		ex.Close()
		ex.Close()
		if err := ex.Run(kernels.NewSynthetic(1, 0), g, 5); !errors.Is(err, ErrClosed) {
			t.Errorf("Run after double Close = %v, want ErrClosed", err)
		}
	})
}

func TestCloseRacingRunDrainsInFlightRegion(t *testing.T) {
	// Regression: a close racing an in-flight run must not strand run()
	// on <-p.done — workers drain the published region before honoring
	// closed. Hammer the interleaving; without the drain guarantee this
	// deadlocks (and the watchdog fires).
	k := kernels.NewSynthetic(1, 0)
	for i := 0; i < 200; i++ {
		withTimeout(t, "close racing run", func() {
			ex := New(4)
			g := grid.NewRect(40, 40, 0)
			raced := make(chan error, 1)
			go func() { raced <- ex.Run(k, g, 4) }()
			ex.Close()
			if err := <-raced; err != nil && !errors.Is(err, ErrClosed) {
				t.Errorf("racing Run = %v, want nil or ErrClosed", err)
			}
		})
		if t.Failed() {
			return
		}
	}
}

func TestSingleWorkerRunAfterClose(t *testing.T) {
	// The single-worker executor runs tiles inline; it must still refuse
	// work after Close rather than silently computing.
	k := kernels.NewSynthetic(1, 0)
	withTimeout(t, "single-worker Run after Close", func() {
		ex := New(1)
		ex.Close()
		g := grid.NewRect(10, 10, 0)
		if err := ex.Run(k, g, 2); !errors.Is(err, ErrClosed) {
			t.Errorf("Run after Close = %v, want ErrClosed", err)
		}
		for _, v := range g.IntA {
			if v != 0 {
				t.Fatal("closed executor must not compute cells")
			}
		}
	})
}
