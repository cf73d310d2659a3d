package retrain

import (
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/hw"
)

// TunerSource resolves per-system tuners; it is structurally identical
// to the service layer's TunerSource so a retrain Source can wrap
// whatever the daemon was configured with (trained, directory-loaded,
// or static) without this package importing the service.
type TunerSource interface {
	Tuner(sys hw.System) (core.Predictor, error)
}

// Source wraps a base TunerSource with atomic champion/challenger
// promotion: until a system's first promotion it resolves through the
// base (that tuner is generation 1, the factory champion); after
// Promote it serves the promoted tuner. Promotion is a pointer swap
// under a mutex — requests racing a promotion get either the old or the
// new champion, never a torn state, and resolution is lock-cheap
// (RLock) on the serving path.
type Source struct {
	base TunerSource

	mu       sync.RWMutex
	promoted map[string]core.Predictor
	gen      map[string]uint64
	promoAt  map[string]time.Time
}

// NewSource wraps base with promotion support.
func NewSource(base TunerSource) *Source {
	return &Source{
		base:     base,
		promoted: make(map[string]core.Predictor),
		gen:      make(map[string]uint64),
		promoAt:  make(map[string]time.Time),
	}
}

// Tuner returns the serving champion for sys: the promoted tuner when
// one exists, the base source's otherwise.
func (s *Source) Tuner(sys hw.System) (core.Predictor, error) {
	s.mu.RLock()
	t := s.promoted[sys.Name]
	s.mu.RUnlock()
	if t != nil {
		return t, nil
	}
	return s.base.Tuner(sys)
}

// Ready reports whether the named system can serve without training or
// loading on the spot: true once promoted, otherwise deferred to the
// base source (sources without readiness tracking report true, matching
// the service layer's convention).
func (s *Source) Ready(system string) bool {
	s.mu.RLock()
	t := s.promoted[system]
	s.mu.RUnlock()
	if t != nil {
		return true
	}
	if r, ok := s.base.(interface{ Ready(string) bool }); ok {
		return r.Ready(system)
	}
	return true
}

// Promote atomically installs t as the named system's serving champion
// and returns the new model generation (the base champion is generation
// 1, so the first promotion returns 2).
func (s *Source) Promote(system string, t core.Predictor) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.promoted[system] = t
	g := s.gen[system]
	if g == 0 {
		g = 1
	}
	g++
	s.gen[system] = g
	s.promoAt[system] = time.Now()
	return g
}

// Generation returns the named system's current model generation;
// a system never promoted is generation 1.
func (s *Source) Generation(system string) uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if g := s.gen[system]; g > 0 {
		return g
	}
	return 1
}

// LastPromotion returns when the named system was last promoted; the
// zero time when it never was.
func (s *Source) LastPromotion(system string) time.Time {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.promoAt[system]
}
