package service

import (
	"fmt"
	"path/filepath"
	"sync"

	"repro/internal/core"
	"repro/internal/hw"
)

// TunerSource resolves the trained predictor for a system.
// Implementations must be safe for concurrent use; the server calls
// Tuner lazily from the cache's miss path, so a source is only exercised
// for systems that actually receive traffic.
type TunerSource interface {
	Tuner(sys hw.System) (core.Predictor, error)
}

// ReadyReporter is the optional interface a TunerSource may implement to
// report whether a system's tuner has been resolved successfully;
// GET /v1/systems consults it for the "lazy"/"ready" field. Sources that
// wrap another TunerSource should forward Ready to keep the readiness
// signal visible.
type ReadyReporter interface {
	Ready(system string) bool
}

// tunerSlot is one system's lazily resolved predictor; done closes when
// the resolve finishes, giving tuner resolution the same singleflight
// property the plan cache gives predictions: concurrent first requests
// for a system run one search, later ones block on its result.
type tunerSlot struct {
	done  chan struct{}
	tuner core.Predictor
	err   error
}

// lazySource shares the slot bookkeeping between sources that resolve a
// tuner at most once per system.
type lazySource struct {
	mu      sync.Mutex
	slots   map[string]*tunerSlot
	resolve func(sys hw.System) (core.Predictor, error)
}

func newLazySource(resolve func(sys hw.System) (core.Predictor, error)) *lazySource {
	return &lazySource{slots: make(map[string]*tunerSlot), resolve: resolve}
}

// Tuner implements TunerSource. A failed resolve is not retried: the
// error is remembered, matching the daemon's "misconfiguration is
// permanent until restart" stance for missing tuner files. The wrapped
// error is settled into the slot once, so the first caller and every
// later one observe the identical error value.
func (l *lazySource) Tuner(sys hw.System) (core.Predictor, error) {
	l.mu.Lock()
	slot, ok := l.slots[sys.Name]
	if !ok {
		slot = &tunerSlot{done: make(chan struct{})}
		l.slots[sys.Name] = slot
		l.mu.Unlock()
		// The slot must settle even if the resolve panics (training or a
		// file load blowing up), or every later request for the system
		// would block forever on done.
		func() {
			defer close(slot.done)
			defer func() {
				if r := recover(); r != nil {
					slot.tuner, slot.err = nil, fmt.Errorf("resolving tuner for %s panicked: %v", sys.Name, r)
				}
			}()
			slot.tuner, slot.err = l.resolve(sys)
			if slot.err != nil {
				slot.err = fmt.Errorf("resolving tuner for %s: %w", sys.Name, slot.err)
			}
		}()
		return slot.tuner, slot.err
	}
	l.mu.Unlock()
	<-slot.done
	return slot.tuner, slot.err
}

// Ready reports whether the named system's tuner has been resolved
// successfully (consumed by GET /v1/systems). It never blocks, even
// while a resolve is in flight.
func (l *lazySource) Ready(name string) bool {
	l.mu.Lock()
	slot, ok := l.slots[name]
	l.mu.Unlock()
	if !ok {
		return false
	}
	select {
	case <-slot.done:
		return slot.err == nil
	default:
		return false
	}
}

// TrainingSourceOptions configure NewTrainingSource.
type TrainingSourceOptions struct {
	// Space is the search space to train on; empty selects
	// core.QuickSpace(). Its cpu-tile axis is widened by
	// core.ServingSpace before training, and training searches only the
	// sampled instances (core.TrainingInstances). Use core.DefaultSpace()
	// for paper-scale tuners.
	Space core.Space
	// TrainOpts configure model fitting; the zero value selects
	// core.DefaultTrainOptions().
	TrainOpts core.TrainOptions
}

// NewTrainingSource returns a source that trains a predictor per system
// on first use through core.TrainFromSpace: a search of the instances of
// core.ServingSpace(options' space) that training samples, followed by
// the model pipeline. The tuner is byte-identical to the "factory" path,
// core.Train over a full core.Exhaustive of that space.
func NewTrainingSource(opts TrainingSourceOptions) TunerSource {
	space := opts.Space
	if len(space.Dims) == 0 && len(space.Rects) == 0 {
		space = core.QuickSpace()
	}
	space = core.ServingSpace(space)
	return newLazySource(func(sys hw.System) (core.Predictor, error) {
		// core.TrainFromSpace applies per-field defaults to zero
		// TrainOptions.
		t, err := core.TrainFromSpace(sys, space, opts.TrainOpts)
		if err != nil {
			return nil, fmt.Errorf("training %s: %w", sys.Name, err)
		}
		return t, nil
	})
}

// NewDirSource returns a source that loads "<dir>/<system>.json" files
// written by wavetrain -save on first use. A file trained for a
// different system than its name indicates is rejected.
func NewDirSource(dir string) TunerSource {
	return newLazySource(func(sys hw.System) (core.Predictor, error) {
		path := filepath.Join(dir, sys.Name+".json")
		t, err := core.LoadPredictor(path)
		if err != nil {
			return nil, err
		}
		if t.System().Name != sys.Name {
			return nil, fmt.Errorf("tuner %s was trained for %s, not %s", path, t.System().Name, sys.Name)
		}
		return t, nil
	})
}

// StaticSource serves pre-built predictors (tests, embedded
// deployments).
type StaticSource struct {
	tuners map[string]core.Predictor

	mu      sync.Mutex
	missing map[string]error
}

// NewStaticSource indexes the given predictors by system name.
func NewStaticSource(tuners ...core.Predictor) *StaticSource {
	m := &StaticSource{
		tuners:  make(map[string]core.Predictor, len(tuners)),
		missing: make(map[string]error),
	}
	for _, t := range tuners {
		m.tuners[t.System().Name] = t
	}
	return m
}

// Tuner implements TunerSource. Like lazySource, a miss surfaces the
// same error value on every call, not a fresh one per request.
func (m *StaticSource) Tuner(sys hw.System) (core.Predictor, error) {
	if t, ok := m.tuners[sys.Name]; ok {
		return t, nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	err, ok := m.missing[sys.Name]
	if !ok {
		err = fmt.Errorf("no tuner for system %q", sys.Name)
		m.missing[sys.Name] = err
	}
	return nil, err
}

// Ready implements the readiness probe: static tuners are always ready.
func (m *StaticSource) Ready(name string) bool { _, ok := m.tuners[name]; return ok }
