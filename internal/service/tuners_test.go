package service

import (
	"context"
	"errors"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/plan"
	"repro/internal/tunecache"
)

// discard is the champion tables' logger in these tests.
var discard = slog.New(slog.DiscardHandler)

func TestDirSource(t *testing.T) {
	dir := t.TempDir()
	tun := tinyTuner(t)
	if err := core.SavePredictor(filepath.Join(dir, tun.Sys.Name+".json"), tun); err != nil {
		t.Fatal(err)
	}
	table := newChampions(NewDirSource(os.DirFS(dir)), []hw.System{tun.Sys, hw.I3_540()}, discard)
	got, err := table.tuner(tun.Sys.Name)
	if err != nil {
		t.Fatal(err)
	}
	if got.System().Name != tun.Sys.Name {
		t.Errorf("loaded tuner for %s, want %s", got.System().Name, tun.Sys.Name)
	}
	// Missing file: error, remembered.
	if _, err := table.tuner("i3-540"); err == nil {
		t.Error("missing tuner file must fail")
	}
	if got := table.state(tun.Sys.Name); got != tunerReady {
		t.Errorf("loaded system is %q, want ready", got)
	}
	if got := table.state("i3-540"); got != tunerFailed {
		t.Errorf("failed system is %q, want failed", got)
	}
}

// TestPanickingResolveSettlesTheSlot: a source that panics for one
// system leaves that system failed with a panicked error, and the
// others ready.
func TestPanickingResolveSettlesTheSlot(t *testing.T) {
	tiny := tinyTuner(t)
	table := newChampions(resolveFunc(func(sys hw.System) (core.Predictor, error) {
		if sys.Name == "i3-540" {
			panic("decode exploded")
		}
		return tiny, nil
	}), []hw.System{hw.I7_2600K(), hw.I3_540()}, discard)
	for i := 0; i < 2; i++ {
		if _, err := table.tuner("i3-540"); err == nil || !strings.Contains(err.Error(), "panicked") {
			t.Fatalf("attempt %d: err = %v, want panicked error", i, err)
		}
	}
	if got := table.state("i3-540"); got != tunerFailed {
		t.Errorf("panicked slot is %q, want failed", got)
	}
	if got := table.state("i7-2600K"); got != tunerReady {
		t.Errorf("other system is %q, want ready", got)
	}
	if tun, err := table.tuner("i7-2600K"); err != nil || tun != core.Predictor(tiny) {
		t.Errorf("other system serves %v (err %v), want its tuner", tun, err)
	}
}

// TestFailedResolveSurfacesOneError pins the error-caching contract: a
// failed resolve settles its wrapped error into the slot once, so the
// first caller and every later one observe the identical error value
// (and the resolve itself runs exactly once).
func TestFailedResolveSurfacesOneError(t *testing.T) {
	cause := errors.New("no such tuner file")
	var calls atomic.Int64
	table := newChampions(resolveFunc(func(sys hw.System) (core.Predictor, error) {
		calls.Add(1)
		return nil, cause
	}), []hw.System{hw.I3_540()}, discard)
	_, err1 := table.tuner("i3-540")
	_, err2 := table.tuner("i3-540")
	if err1 == nil {
		t.Fatal("failed resolve must error")
	}
	if err1 != err2 {
		t.Errorf("errors differ across calls: %v vs %v", err1, err2)
	}
	if !errors.Is(err1, cause) {
		t.Errorf("wrapped error %v does not unwrap to the cause", err1)
	}
	if !strings.Contains(err1.Error(), "resolving tuner for i3-540") {
		t.Errorf("error %q does not name the system", err1)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("resolve ran %d times, want 1", got)
	}
	if got := table.state(hw.I3_540().Name); got != tunerFailed {
		t.Errorf("failed slot is %q, want failed", got)
	}
}

// TestStaticSourceMissErrorIsStable: a StaticSource miss, served through
// the table, surfaces the identical error value on every lookup and
// calls the source once per system.
func TestStaticSourceMissErrorIsStable(t *testing.T) {
	src := &countingSource{inner: NewStaticSource(tinyTuner(t))}
	table := newChampions(src, []hw.System{hw.I3_540(), hw.I7_2600K()}, discard)
	_, err1 := table.tuner("i3-540")
	_, err2 := table.tuner("i3-540")
	if err1 == nil || err1 != err2 {
		t.Fatalf("miss errors must be the identical value: %v vs %v", err1, err2)
	}
	for i := 0; i < 2; i++ {
		if tun, err := table.tuner("i7-2600K"); err != nil || tun == nil {
			t.Fatalf("hit failed: %v", err)
		}
	}
	if got := src.calls.Load(); got != 2 {
		t.Errorf("source called %d times, want once per system (2)", got)
	}
}

// otherPredictor is a second champion distinct from the one it wraps.
type otherPredictor struct{ core.Predictor }

// TestPromotionRacesTuneBurst hammers the serving path (table resolve +
// cache fill) from several goroutines while promotions and targeted
// invalidations land concurrently. Run under -race this is the
// promotion-atomicity proof: every lookup gets a complete plan from
// either the old or the new champion, and the generation counts every
// promotion.
func TestPromotionRacesTuneBurst(t *testing.T) {
	first := tinyTuner(t)
	second := otherPredictor{first}
	sys := hw.I7_2600K()
	table := newChampions(NewStaticSource(first), []hw.System{sys}, discard)
	cache := tunecache.NewShardedCtx(256, 4, func(_ context.Context, system string, inst plan.Instance) (tunecache.Plan, error) {
		tun, err := table.tuner(system)
		if err != nil {
			return tunecache.Plan{}, err
		}
		pred, rt, serial, err := tun.PredictTimed(inst)
		if err != nil {
			return tunecache.Plan{}, err
		}
		return tunecache.Plan{Serial: pred.Serial, Par: pred.Par, RTimeNs: rt, SerialNs: serial}, nil
	})
	insts := make([]plan.Instance, 16)
	for i := range insts {
		insts[i] = plan.Instance{Dim: 300 + 100*i, TSize: 200, DSize: 1}
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, _, err := cache.Get(sys.Name, insts[(i+g)%len(insts)]); err != nil {
					t.Errorf("Get during promotion: %v", err)
					return
				}
			}
		}(g)
	}
	var last core.Predictor
	for i := 0; i < 50; i++ {
		last = core.Predictor(first)
		if i%2 == 1 {
			last = second
		}
		table.promote(sys.Name, last)
		cache.InvalidateSystem(sys.Name)
	}
	close(stop)
	wg.Wait()

	if got := table.generation(sys.Name); got != 51 {
		t.Fatalf("generation = %d, want 51 after 50 promotions", got)
	}
	if tun, err := table.tuner(sys.Name); err != nil || tun != last {
		t.Fatalf("serving champion = %v (err %v), want the last promoted", tun, err)
	}
	if _, _, err := cache.Get(sys.Name, insts[0]); err != nil {
		t.Fatalf("post-burst lookup: %v", err)
	}
}
