package main

// Spans of the traced run: each timed call into a layer is recorded in
// memory with its name, start, end, parent span and the request it
// belongs to; the run writes them out as JSON lines at the end and
// prints each layer's self time.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// spanRec is one finished span. Times are nanoseconds since the
// recorder started.
type spanRec struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps every span of a run in memory. A nil recorder records
// nothing, but its spans still time their calls, which is how the
// untraced side of trace.overhead_ratio is measured.
type recorder struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []spanRec
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// span is one open span.
type span struct {
	r     *recorder
	rec   spanRec
	start time.Time
}

// start opens a span under parent (0 = a root) for request req.
func (r *recorder) start(name string, parent, req int64) span {
	s := span{r: r}
	if r != nil {
		s.rec = spanRec{Name: name, ID: r.ids.Add(1), Parent: parent, Req: req}
	}
	s.start = time.Now()
	return s
}

// id is the span's identifier, for its children's parent field.
func (s span) id() int64 { return s.rec.ID }

// end closes the span, records it and returns its duration.
func (s span) end() time.Duration {
	now := time.Now()
	if s.r != nil {
		s.rec.Start, s.rec.End = int64(s.start.Sub(s.r.t0)), int64(now.Sub(s.r.t0))
		s.r.mu.Lock()
		s.r.spans = append(s.r.spans, s.rec)
		s.r.mu.Unlock()
	}
	return now.Sub(s.start)
}

// durations returns the durations in microseconds of every span named
// name.
func (r *recorder) durations(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// p50 is the median duration of the spans named name, in microseconds.
func (r *recorder) p50(name string) float64 { return median(r.durations(name)) }

// writeFile writes every span as one JSON object per line.
func (r *recorder) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSelfTimes prints, per span name, the count, the total time and
// the self time: each span's duration minus the part of it its child
// spans cover.
func (r *recorder) printSelfTimes(w io.Writer) {
	children := make(map[int64][]spanRec)
	for _, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	type row struct {
		name        string
		n           int
		total, self int64
	}
	rows := make(map[string]*row)
	for _, s := range r.spans {
		rw := rows[s.Name]
		if rw == nil {
			rw = &row{name: s.Name}
			rows[s.Name] = rw
		}
		rw.n++
		rw.total += s.End - s.Start
		rw.self += s.End - s.Start - covered(s, children[s.ID])
	}
	sorted := make([]*row, 0, len(rows))
	for _, rw := range rows {
		sorted = append(sorted, rw)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].self > sorted[j].self })
	fmt.Fprintf(w, "%-28s %8s %12s %12s %12s\n", "span", "count", "total_ms", "self_ms", "self_us/call")
	for _, rw := range sorted {
		fmt.Fprintf(w, "%-28s %8d %12.3f %12.3f %12.3f\n", rw.name, rw.n,
			float64(rw.total)/1e6, float64(rw.self)/1e6, float64(rw.self)/1e3/float64(rw.n))
	}
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent spanRec, children []spanRec) int64 {
	sort.Slice(children, func(i, j int) bool { return children[i].Start < children[j].Start })
	var total, reach int64 = 0, parent.Start
	for _, c := range children {
		lo, hi := max(c.Start, reach), min(c.End, parent.End)
		if hi > lo {
			total += hi - lo
			reach = hi
		}
	}
	return total
}
