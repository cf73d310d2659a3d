package service

import (
	"fmt"
	"io/fs"
	"log/slog"
	"sync"

	"repro/internal/core"
	"repro/internal/hw"
)

// TunerSource resolves the trained predictor for a system. New calls
// Tuner once per served system, before it returns, and remembers the
// result (tuner or error) in its champion table; a source need not
// cache. The daemon's sources load trained files (NewDirSource), so a
// call is a JSON decode, not a training.
type TunerSource interface {
	Tuner(sys hw.System) (core.Predictor, error)
}

// tunerSlot is one system's row of the champion table: the serving
// predictor, or the error its load returned, and the model generation
// (1 for the loaded champion, +1 per promotion).
type tunerSlot struct {
	tuner core.Predictor
	err   error
	gen   uint64
}

// champions is the server's one table of serving tuners: per system,
// the predictor that serves and its model generation. The plan cache's
// miss path, the job manager, the retrainer and the readiness and
// generation reports all read it; the mutex guards the slots against
// promotions.
type champions struct {
	mu    sync.Mutex
	slots map[string]*tunerSlot
}

// newChampions loads every system's champion through source, one system
// after another. A failed load is logged and remembered, not retried,
// matching the daemon's "misconfiguration is permanent until restart"
// stance for missing tuner files: every lookup for that system returns
// the identical error value, while the other systems serve.
func newChampions(source TunerSource, systems []hw.System, logger *slog.Logger) *champions {
	c := &champions{slots: make(map[string]*tunerSlot, len(systems))}
	for _, sys := range systems {
		t, err := load(source, sys)
		if err != nil {
			logger.Error("tuner resolution failed", "system", sys.Name, "err", err)
		}
		c.slots[sys.Name] = &tunerSlot{tuner: t, err: err, gen: 1}
	}
	return c
}

// load calls the source once. A panicking source (a file decode or an
// embedding program's source blowing up) becomes the system's error
// instead of taking the daemon down.
func load(source TunerSource, sys hw.System) (t core.Predictor, err error) {
	defer func() {
		if r := recover(); r != nil {
			t, err = nil, fmt.Errorf("resolving tuner for %s panicked: %v", sys.Name, r)
		}
	}()
	if t, err = source.Tuner(sys); err != nil {
		return nil, fmt.Errorf("resolving tuner for %s: %w", sys.Name, err)
	}
	return t, nil
}

// tuner returns the named system's serving champion, or the error its
// load returned.
func (c *champions) tuner(name string) (core.Predictor, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	slot, ok := c.slots[name]
	if !ok {
		return nil, fmt.Errorf("service: unknown system %q", name)
	}
	return slot.tuner, slot.err
}

// Tuner states reported by GET /v1/systems.
const (
	tunerReady  = "ready"  // loaded successfully, or promoted
	tunerFailed = "failed" // the load returned an error
)

// state reports a served system's tuner state.
func (c *champions) state(name string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.slots[name].err != nil {
		return tunerFailed
	}
	return tunerReady
}

// promote installs t as a served system's champion and returns the new
// generation. Requests racing a promotion get the old champion or the
// new one, never a torn state.
func (c *champions) promote(system string, t core.Predictor) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	slot := c.slots[system]
	slot.tuner, slot.err = t, nil
	slot.gen++
	return slot.gen
}

// generation returns a served system's model generation: 1 until its
// first promotion.
func (c *champions) generation(name string) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.slots[name].gen
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
