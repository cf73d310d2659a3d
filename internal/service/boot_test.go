package service

import (
	"context"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hw"
)

// TestBootResolutionRaces: New starts resolving every served system with
// no request asking. A first tune that arrives mid-resolution waits on
// its system's slot, a promotion that lands mid-resolution still wins
// with generation 2, the source is called once per system, and no
// resolve outlives Shutdown.
func TestBootResolutionRaces(t *testing.T) {
	tiny := tinyTuner(t)
	g := newGatedSource(resolveFunc(func(hw.System) (core.Predictor, error) { return tiny, nil }))
	defer g.release()
	systems := hw.Systems()
	s, ts, _ := newTestServer(t, Config{Tuners: g, Systems: systems})
	for _, sys := range systems {
		waitEntered(t, g, sys.Name)
	}
	for _, info := range getSystems(t, ts.URL) {
		if info.Tuner != tunerTraining {
			t.Errorf("%s tuner mid-resolution = %q, want training", info.Name, info.Tuner)
		}
	}

	first := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/tune", "application/json",
			strings.NewReader(`{"system":"i7-2600K","dim":700,"tsize":10,"dsize":1}`))
		if err != nil {
			t.Error(err)
			first <- 0
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		first <- resp.StatusCode
	}()
	promoted := otherPredictor{tiny}
	const target = "i3-540"
	if gen, _ := s.promote(target, promoted); gen != 2 {
		t.Errorf("promotion mid-resolution = generation %d, want 2", gen)
	}
	select {
	case code := <-first:
		t.Fatalf("first tune answered %d while its system's resolve was held", code)
	case <-time.After(20 * time.Millisecond):
	}
	g.release()
	if code := <-first; code != http.StatusOK {
		t.Fatalf("first tune status %d, want 200", code)
	}

	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	calls, active := g.counts()
	if active != 0 {
		t.Errorf("%d resolves still running after Shutdown returned", active)
	}
	for _, sys := range systems {
		if calls[sys.Name] != 1 {
			t.Errorf("source called %d times for %s, want 1", calls[sys.Name], sys.Name)
		}
	}
	if tun, err := s.tuners.tuner(hw.I3_540()); err != nil || tun != core.Predictor(promoted) {
		t.Errorf("%s serves %v (err %v), want the promoted champion", target, tun, err)
	}
	for _, info := range getSystems(t, ts.URL) {
		want := uint64(1)
		if info.Name == target {
			want = 2
		}
		if info.Tuner != tunerReady || info.Generation != want {
			t.Errorf("%s = %s generation %d, want ready generation %d", info.Name, info.Tuner, info.Generation, want)
		}
	}
	if got, _ := g.counts(); len(got) != len(systems) || got[target] != 1 {
		t.Errorf("source calls after Shutdown = %v, want one per system", got)
	}
}

// TestBootResolutionShutdown: Shutdown waits for a resolve still running
// and, once its context ends first, returns an error wrapping the
// context's.
func TestBootResolutionShutdown(t *testing.T) {
	g := newGatedSource(NewStaticSource(tinyTuner(t)))
	defer g.release()
	s, _, _ := newTestServer(t, Config{Tuners: g})
	waitEntered(t, g, "i7-2600K")

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "tuner resolution") {
		t.Errorf("Shutdown with an ended context mid-resolution = %v, want a canceled tuner-resolution error", err)
	}

	done := make(chan error, 1)
	go func() { done <- s.Shutdown(context.Background()) }()
	select {
	case err := <-done:
		t.Fatalf("Shutdown returned (%v) while a resolve was held", err)
	case <-time.After(20 * time.Millisecond):
	}
	g.release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if _, active := g.counts(); active != 0 {
		t.Errorf("%d resolves still running after Shutdown returned", active)
	}
}

// waitEntered waits for a resolve of the named system to start, which
// New must begin with no request asking for it.
func waitEntered(t *testing.T, g *gatedSource, system string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !g.entered(system) {
		if time.Now().After(deadline) {
			t.Fatalf("no resolve of %s started within 5s of New", system)
		}
		time.Sleep(time.Millisecond)
	}
}
