package core

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/plan"
)

// ObservationLog persists measured (instance, params, runtime)
// observations gathered at serving time — the feedback half of the
// paper's future-work runtime tuning: when an online-refined job
// measures a configuration, the observation is appended here so the
// offline models can later be retrained on deployment traffic. Rows are
// written in the exact search-CSV format of WriteCSV, one file per
// system ("<dir>/<system>.csv"), so `wavetrain -from` folds a log file
// into retraining with no conversion step.
//
// Appends are serialized per system, not globally: each system owns an
// appender with its own lock and a file handle that stays open across
// calls, so concurrent workers feeding different systems never contend
// on one mutex and no call pays an open/close round trip. Rotation
// stays safe: each append re-stats the path and reopens if the file was
// moved aside or deleted (e.g. `mv <system>.csv old.csv` before a
// wavetrain -from fold), recreating it with a fresh header. Every
// Append flushes before returning (write-through durability: a crash
// never loses more than the rows of the append in progress), and Close
// flushes and releases every appender — call it when the daemon shuts
// down.
type ObservationLog struct {
	dir string

	// mu guards the appender map and the closed flag only; row writing
	// locks the individual appender.
	mu        sync.Mutex
	appenders map[string]*obsAppender
	closed    bool
}

// obsAppender is one system's open CSV file. The file is opened lazily
// on the first append and reused until Close (or a write error, which
// drops the handle so the next append reopens cleanly).
type obsAppender struct {
	mu   sync.Mutex
	path string
	f    *os.File
	w    *bufio.Writer
	// fi identifies the open file, so an append can detect that the path
	// was rotated or deleted underneath the handle and reopen.
	fi os.FileInfo
	// closed is set by ObservationLog.Close under mu; later appends
	// must not reuse or reopen the persistent handle — they take the
	// one-shot path instead.
	closed bool
}

// Observation is one measured configuration: the instance it ran on,
// the parameter setting, and the measured runtime in nanoseconds. App,
// when set, names the catalog application the measurement came from and
// is persisted in the CSV's app column (empty is allowed — the
// granularity already lives in Inst).
type Observation struct {
	Inst    plan.Instance
	Par     plan.Params
	RTimeNs float64
	App     string
}

// NewObservationLog creates (if needed) dir and returns a log writing
// per-system CSV files into it.
func NewObservationLog(dir string) (*ObservationLog, error) {
	if dir == "" {
		return nil, fmt.Errorf("core: empty observation-log directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("core: observation log: %w", err)
	}
	return &ObservationLog{dir: dir, appenders: make(map[string]*obsAppender)}, nil
}

// Path returns the CSV file observations for the named system append to.
func (l *ObservationLog) Path(system string) string { return ObservationLogPath(l.dir, system) }

// ObservationLogPath is the one spelling of an observation log's file
// name: "<dir>/<system>.csv".
func ObservationLogPath(dir, system string) string {
	return filepath.Join(dir, system+".csv")
}

// validLogSystem rejects system names that would escape the log
// directory, produce unreadable file names, or break the CSV row format
// (the name is written raw as the first column).
func validLogSystem(system string) error {
	if system == "" {
		return fmt.Errorf("core: empty system name")
	}
	if strings.ContainsAny(system, "/\\,\n\r") || system == "." || system == ".." {
		return fmt.Errorf("core: system name %q not usable in a CSV observation log", system)
	}
	return nil
}

// appender returns (creating if needed) the named system's appender.
// Appenders outlive Close — a straggler append after Close still
// serializes on the same per-system mutex, it just takes the one-shot
// write path instead of the persistent handle.
func (l *ObservationLog) appender(system string) *obsAppender {
	l.mu.Lock()
	defer l.mu.Unlock()
	a, ok := l.appenders[system]
	if !ok {
		a = &obsAppender{path: l.Path(system), closed: l.closed}
		l.appenders[system] = a
	}
	return a
}

// open readies the appender's file handle, writing the search-CSV
// header when the file is new or empty. Caller holds a.mu and has
// checked a.closed.
func (a *obsAppender) open() error {
	if a.f != nil {
		// Reused handle: detect rotation. If the path no longer names the
		// open file (moved aside for retraining, or deleted), drop the
		// stale handle and fall through to a fresh open — new rows then
		// recreate the file with its header instead of feeding the
		// unlinked inode. One stat per append is the price of staying
		// rotation-friendly; the open/close round trip is still gone.
		if a.fi == nil {
			return nil // no recorded identity to compare against
		}
		if fi, err := os.Stat(a.path); err == nil && os.SameFile(a.fi, fi) {
			return nil
		}
		a.drop()
	}
	f, err := os.OpenFile(a.path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("core: observation log: %w", err)
	}
	a.f = f
	a.w = bufio.NewWriter(f)
	if fi, err := f.Stat(); err == nil {
		a.fi = fi
		if fi.Size() == 0 {
			fmt.Fprintln(a.w, searchCSVHeader)
		}
	}
	return nil
}

// drop closes and discards the appender's handle (after a write error
// or a detected rotation), so the next append starts from a clean open.
// Caller holds a.mu.
func (a *obsAppender) drop() {
	if a.f != nil {
		a.f.Close()
	}
	a.f, a.w, a.fi = nil, nil, nil
}

// Append validates and appends observations to the named system's file,
// writing the search-CSV header first when the file is new or empty.
// Every observation is validated (the instance, and the params via
// plan.Build) before any row is written, so a log file never contains
// settings that ReadCSV would reject. The rows are flushed to the file
// before Append returns; the file handle stays open for the next call.
// An Append that arrives after Close (a straggler worker outliving a
// cut-short shutdown drain) still persists: it takes a one-shot
// open/write/close path instead of the reused appender.
func (l *ObservationLog) Append(system string, obs ...Observation) error {
	if err := validLogSystem(system); err != nil {
		return err
	}
	for i, o := range obs {
		if err := plan.Check(o.Inst, o.Par); err != nil {
			return fmt.Errorf("core: observation %d: %w", i, err)
		}
		if !(o.RTimeNs > 0) {
			return fmt.Errorf("core: observation %d: runtime %v not positive", i, o.RTimeNs)
		}
		if strings.ContainsAny(o.App, ",\n\r") {
			return fmt.Errorf("core: observation %d: app %q not usable in a CSV row", i, o.App)
		}
	}
	if len(obs) == 0 {
		return nil
	}

	a := l.appender(system)
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		// Close already ran: one-shot open/write/close under the same
		// per-system mutex, so straggler appends stay serialized (no
		// interleaved rows, no duplicated header) and leave no handle
		// open behind the finished Close.
		return a.appendOnceLocked(system, obs)
	}
	if err := a.open(); err != nil {
		return err
	}
	for _, o := range obs {
		writeSearchRow(a.w, system, o.Inst.Normalize(), o.Par, o.RTimeNs, false, o.App)
	}
	if err := a.w.Flush(); err != nil {
		a.drop()
		return fmt.Errorf("core: observation log: %w", err)
	}
	return nil
}

// appendOnceLocked is the write-through fallback used after Close:
// open, write, flush, close — nothing left open for anyone to clean
// up. Caller holds a.mu.
func (a *obsAppender) appendOnceLocked(system string, obs []Observation) error {
	f, err := os.OpenFile(a.path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("core: observation log: %w", err)
	}
	w := bufio.NewWriter(f)
	if fi, err := f.Stat(); err == nil && fi.Size() == 0 {
		fmt.Fprintln(w, searchCSVHeader)
	}
	for _, o := range obs {
		writeSearchRow(w, system, o.Inst.Normalize(), o.Par, o.RTimeNs, false, o.App)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("core: observation log: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("core: observation log: %w", err)
	}
	return nil
}

// Close flushes and closes every per-system appender. It is safe to
// call more than once. Appends arriving after Close do not lose data —
// they fall back to the one-shot write-through path (see Append).
func (l *ObservationLog) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	// Deterministic close order keeps any error report stable.
	names := make([]string, 0, len(l.appenders))
	for name := range l.appenders {
		names = append(names, name)
	}
	sort.Strings(names)
	appenders := make([]*obsAppender, len(names))
	for i, name := range names {
		appenders[i] = l.appenders[name]
	}
	l.mu.Unlock()

	var err error
	for _, a := range appenders {
		a.mu.Lock()
		a.closed = true
		if a.f != nil {
			if ferr := a.w.Flush(); ferr != nil {
				err = errors.Join(err, fmt.Errorf("core: observation log: %w", ferr))
			}
			if cerr := a.f.Close(); cerr != nil {
				err = errors.Join(err, fmt.Errorf("core: observation log: %w", cerr))
			}
			a.f, a.w = nil, nil
		}
		a.mu.Unlock()
	}
	return err
}
