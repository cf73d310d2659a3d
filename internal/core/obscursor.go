package core

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"strings"
	"sync"

	"repro/internal/atomicfile"
)

// LogCursor tracks how far an observation-log CSV has been consumed, so
// a retrainer polling the log can tell "new rows since last time" from
// rows it already trained on — the consumed prefix must never be counted
// again, across process restarts included. The position is persisted as
// a small JSON checkpoint file next to the log.
//
// Rotation safety: a byte offset alone cannot distinguish "the file
// grew" from "the file was rotated and regrew past the old offset", and
// retraining on the wrong interpretation either re-consumes old rows or
// silently skips new ones. The checkpoint therefore also records a
// probe — the FNV-1a hash of the file's first min(consumed, 4KiB) bytes,
// which are immutable under append-only growth. On the next scan the
// probe is recomputed: a match means the same file, so counting resumes
// at the saved offset; a mismatch (or a file shorter than the offset)
// means the path was rotated or truncated, and counting restarts from
// the top of the new file, whose rows are all genuinely new.
//
// A scan only consumes complete lines (ending in '\n'): a torn row still
// being appended stays unconsumed and is picked up whole by a later
// scan. Scans are read-only; Commit persists the position a scan
// reached, and the caller decides when — typically after acting on the
// scanned rows — so a crash between scan and commit degrades to
// re-counting, never to losing rows.
type LogCursor struct {
	path string // the observation-log CSV
	ckpt string // the checkpoint JSON next to it

	mu     sync.Mutex
	loaded bool
	cur    logCheckpoint
	// br and probe are reused by every scan under mu: the retrainer
	// scans each log on every wake, mostly finding nothing new.
	br    *bufio.Reader
	probe [logProbeCap]byte
}

// logCheckpoint is the persisted read position.
type logCheckpoint struct {
	Offset   int64  `json:"offset"`
	ProbeLen int64  `json:"probe_len"`
	ProbeSum uint64 `json:"probe_sum"`
}

// logProbeCap bounds the prefix hashed into the checkpoint probe.
const logProbeCap = 4096

// LogScan reports what one Scan saw.
type LogScan struct {
	// NewRows counts complete, parseable data rows past the checkpoint.
	NewRows int
	// BadRows counts complete lines past the checkpoint that are neither
	// a header, blank, nor a parseable data row.
	BadRows int
	// Rotated reports that the checkpoint did not match the file (the
	// log was rotated or truncated) and counting restarted at the top.
	Rotated bool

	next logCheckpoint
}

// NewLogCursor returns a cursor over the log file at path, persisting
// its position to path+".ckpt". Neither file needs to exist yet.
func NewLogCursor(path string) *LogCursor {
	return &LogCursor{path: path, ckpt: checkpointPath(path), br: bufio.NewReader(nil)}
}

// checkpointPath returns the checkpoint path for an observation-log CSV:
// the log path with ".ckpt" appended, keeping the two files adjacent in
// the log directory.
func checkpointPath(logPath string) string { return logPath + ".ckpt" }

// Scan reads the log from the last committed position and reports how
// many new complete rows have appeared. A missing log file scans as
// zero rows. Scan does not move the committed position — call Commit
// with the returned LogScan once the rows have been acted on.
func (c *LogCursor) Scan() (LogScan, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.loaded {
		c.loadLocked()
	}
	f, err := os.Open(c.path)
	if err != nil {
		if os.IsNotExist(err) {
			// No file: nothing to consume. A nonzero checkpoint means the
			// log was rotated away entirely.
			return LogScan{Rotated: c.cur.Offset > 0}, nil
		}
		return LogScan{}, fmt.Errorf("core: log cursor: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return LogScan{}, fmt.Errorf("core: log cursor: %w", err)
	}

	start := int64(0)
	rotated := false
	if c.cur.Offset > 0 {
		ok := fi.Size() >= c.cur.Offset && c.cur.ProbeLen <= fi.Size()
		if ok && c.cur.ProbeLen > 0 {
			sum, err := c.hashPrefix(f, c.cur.ProbeLen)
			if err != nil {
				return LogScan{}, fmt.Errorf("core: log cursor: %w", err)
			}
			ok = sum == c.cur.ProbeSum
		}
		if ok {
			start = c.cur.Offset
		} else {
			rotated = true
		}
	}

	if _, err := f.Seek(start, io.SeekStart); err != nil {
		return LogScan{}, fmt.Errorf("core: log cursor: %w", err)
	}
	scan := LogScan{Rotated: rotated}
	consumed := start
	c.br.Reset(f)
	for {
		line, err := c.br.ReadString('\n')
		if err == io.EOF {
			// A trailing fragment without its newline is a row mid-append:
			// leave it unconsumed for a later scan to read whole.
			break
		}
		if err != nil {
			return LogScan{}, fmt.Errorf("core: log cursor: %w", err)
		}
		consumed += int64(len(line))
		t := strings.TrimSpace(line)
		if t == "" || t == searchCSVHeader {
			continue
		}
		if _, perr := parseSearchRow(t); perr != nil {
			scan.BadRows++
		} else {
			scan.NewRows++
		}
	}

	scan.next = logCheckpoint{Offset: consumed}
	if scan.next.ProbeLen = consumed; scan.next.ProbeLen > logProbeCap {
		scan.next.ProbeLen = logProbeCap
	}
	if scan.next.ProbeLen > 0 {
		sum, err := c.hashPrefix(f, scan.next.ProbeLen)
		if err != nil {
			return LogScan{}, fmt.Errorf("core: log cursor: %w", err)
		}
		scan.next.ProbeSum = sum
	}
	return scan, nil
}

// Commit persists the position a Scan reached; subsequent scans count
// only rows appended after it.
func (c *LogCursor) Commit(s LogScan) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	data, err := json.Marshal(s.next)
	if err != nil {
		return fmt.Errorf("core: log cursor: %w", err)
	}
	// An atomic replace keeps the checkpoint whole: a crash mid-commit
	// leaves the previous checkpoint intact (worst case the same rows are
	// re-counted), never a torn JSON file.
	if err := atomicfile.Write(c.ckpt, 0o644, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	}); err != nil {
		return fmt.Errorf("core: log cursor: %w", err)
	}
	c.cur = s.next
	c.loaded = true
	return nil
}

// loadLocked reads the persisted checkpoint; a missing or unreadable
// file (including a corrupt one from a torn write on a filesystem
// without atomic rename) degrades to the zero checkpoint, which
// re-counts from the top — safe, because scans are read-only.
func (c *LogCursor) loadLocked() {
	c.loaded = true
	data, err := os.ReadFile(c.ckpt)
	if err != nil {
		return
	}
	var ck logCheckpoint
	if json.Unmarshal(data, &ck) != nil || ck.Offset < 0 ||
		ck.ProbeLen < 0 || ck.ProbeLen > logProbeCap {
		return
	}
	c.cur = ck
}

// hashPrefix returns the FNV-1a hash of the file's first n bytes, read
// into the cursor's probe buffer (n <= logProbeCap). The caller holds
// c.mu.
func (c *LogCursor) hashPrefix(f *os.File, n int64) (uint64, error) {
	b := c.probe[:n]
	if _, err := f.ReadAt(b, 0); err != nil {
		return 0, err
	}
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64(), nil
}
