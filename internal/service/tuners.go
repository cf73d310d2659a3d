package service

import (
	"fmt"
	"io/fs"
	"log/slog"
	"sync"

	"repro/internal/core"
	"repro/internal/hw"
)

// TunerSource resolves the trained predictor for a system.
// Implementations must be safe for concurrent use. The server calls
// Tuner at most once per system and remembers the result (tuner or
// error) in its champion table; a source need not cache. New starts
// resolving every served system at once, in the background; a request
// that needs a tuner still being resolved waits for that resolve. The
// daemon's sources load trained files (NewDirSource), so a resolve is
// a JSON decode, not a training.
type TunerSource interface {
	Tuner(sys hw.System) (core.Predictor, error)
}

// tunerSlot is one system's row of the champion table. done closes when
// the first resolve finishes, giving tuner resolution the same
// singleflight property the plan cache gives predictions: concurrent
// first requests for a system run one search, later ones block on its
// result. tuner, err and gen are guarded by the table's mutex; gen is 1
// for the resolved (factory) champion and +1 per promotion.
type tunerSlot struct {
	done  chan struct{}
	tuner core.Predictor
	err   error
	gen   uint64
}

// champions is the server's one table of serving tuners: per system,
// the predictor that serves and its model generation. The plan cache's
// miss path, the job manager, the retrainer and the readiness and
// generation reports all read it.
type champions struct {
	source TunerSource

	mu    sync.Mutex
	slots map[string]*tunerSlot
}

func newChampions(source TunerSource) *champions {
	return &champions{source: source, slots: make(map[string]*tunerSlot)}
}

// tuner returns sys's serving champion, resolving it through the source
// on the first call for sys (resolveAll makes that call at boot). A
// failed resolve is not retried: the error is remembered, matching the
// daemon's "misconfiguration is permanent until restart" stance for
// missing tuner files, so the first caller and every later one observe
// the identical error value.
func (c *champions) tuner(sys hw.System) (core.Predictor, error) {
	c.mu.Lock()
	slot, ok := c.slots[sys.Name]
	if !ok {
		slot = &tunerSlot{done: make(chan struct{}), gen: 1}
		c.slots[sys.Name] = slot
		c.mu.Unlock()
		t, err := c.resolve(sys)
		c.mu.Lock()
		if slot.gen == 1 { // no promotion overtook the resolve
			slot.tuner, slot.err = t, err
		}
		close(slot.done)
	} else {
		c.mu.Unlock()
		<-slot.done
		c.mu.Lock()
	}
	defer c.mu.Unlock()
	return slot.tuner, slot.err
}

// resolveAll resolves every system's champion concurrently, each through
// the slot a first request would use, and returns a channel closed once
// all have settled. A failed resolve is logged; requests for the system
// get its error.
func (c *champions) resolveAll(systems []hw.System, logger *slog.Logger) <-chan struct{} {
	settled := make(chan struct{})
	var wg sync.WaitGroup
	for _, sys := range systems {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.tuner(sys); err != nil {
				logger.Error("tuner resolution failed", "system", sys.Name, "err", err)
			}
		}()
	}
	go func() {
		wg.Wait()
		close(settled)
	}()
	return settled
}

// resolve calls the source once. A panicking resolve (a file decode or
// an embedding program's source blowing up) becomes an error, so the
// slot still settles and later requests for the system do not block
// forever on done.
func (c *champions) resolve(sys hw.System) (t core.Predictor, err error) {
	defer func() {
		if r := recover(); r != nil {
			t, err = nil, fmt.Errorf("resolving tuner for %s panicked: %v", sys.Name, r)
		}
	}()
	if t, err = c.source.Tuner(sys); err != nil {
		return nil, fmt.Errorf("resolving tuner for %s: %w", sys.Name, err)
	}
	return t, nil
}

// Tuner states reported by GET /v1/systems.
const (
	tunerTraining = "training" // the resolve has not finished
	tunerReady    = "ready"    // resolved successfully, or promoted
	tunerFailed   = "failed"   // the resolve returned an error
)

// state reports the named system's tuner state. It never blocks, even
// while a resolve is in flight.
func (c *champions) state(name string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	slot, ok := c.slots[name]
	if !ok {
		return tunerTraining
	}
	select {
	case <-slot.done:
		if slot.err != nil {
			return tunerFailed
		}
		return tunerReady
	default:
		return tunerTraining
	}
}

// promote installs t as the system's serving champion and returns the
// new generation. Requests racing a promotion get the old champion or
// the new one, never a torn state. A promotion that lands before the
// first resolve finishes wins over it.
func (c *champions) promote(system string, t core.Predictor) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	slot, ok := c.slots[system]
	if !ok {
		slot = &tunerSlot{done: make(chan struct{}), gen: 1}
		close(slot.done)
		c.slots[system] = slot
	}
	slot.tuner, slot.err = t, nil
	slot.gen++
	return slot.gen
}

// generation returns the named system's serving model generation: 1
// until its first promotion.
func (c *champions) generation(name string) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if slot, ok := c.slots[name]; ok {
		return slot.gen
	}
	return 1
}

// resolveFunc adapts a resolve function to TunerSource.
type resolveFunc func(sys hw.System) (core.Predictor, error)

func (f resolveFunc) Tuner(sys hw.System) (core.Predictor, error) { return f(sys) }

// NewDirSource returns a source that loads "<system>.json" files, as
// wavetrain -save writes them, from fsys: os.DirFS of a directory, or
// FactoryTuners. A file trained for a different system than its name
// indicates is rejected.
func NewDirSource(fsys fs.FS) TunerSource {
	return resolveFunc(func(sys hw.System) (core.Predictor, error) {
		name := sys.Name + ".json"
		data, err := fs.ReadFile(fsys, name)
		if err != nil {
			return nil, fmt.Errorf("reading tuner: %w", err)
		}
		t, err := core.UnmarshalPredictor(data)
		if err != nil {
			return nil, fmt.Errorf("tuner %s: %w", name, err)
		}
		if t.System().Name != sys.Name {
			return nil, fmt.Errorf("tuner %s was trained for %s, not %s", name, t.System().Name, sys.Name)
		}
		return t, nil
	})
}

// StaticSource serves pre-built predictors (tests, embedded
// deployments).
type StaticSource struct {
	tuners map[string]core.Predictor
}

// NewStaticSource indexes the given predictors by system name.
func NewStaticSource(tuners ...core.Predictor) *StaticSource {
	m := &StaticSource{tuners: make(map[string]core.Predictor, len(tuners))}
	for _, t := range tuners {
		m.tuners[t.System().Name] = t
	}
	return m
}

// Tuner implements TunerSource.
func (m *StaticSource) Tuner(sys hw.System) (core.Predictor, error) {
	if t, ok := m.tuners[sys.Name]; ok {
		return t, nil
	}
	return nil, fmt.Errorf("no tuner for system %q", sys.Name)
}
