package telemetry

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"
	"time"
)

// A Span is one timed region of work in a request's trace tree. Roots
// are created with StartRootSpan where a trace is wanted (the HTTP
// middleware and the job manager, each only when its slow-request or
// slow-job logging is on); StartSpan then grows the tree from the context, or no-ops where
// no root was opened. Spans are annotated with key=value attributes
// and closed with End; a finished root renders its whole subtree for
// slow-request logging. All methods are safe for concurrent use (so
// fan-out handlers may open children of one parent from many
// goroutines) and safe on a nil receiver, which is the no-op span
// StartSpan hands out on untraced paths.
type Span struct {
	name  string
	start time.Time

	mu       sync.Mutex
	dur      time.Duration
	ended    bool
	attrs    []spanAttr
	children []*Span
}

// spanAttr keeps the annotation value unrendered: traces are rendered
// rarely (slow requests only), so the fmt cost is paid at Render time
// rather than on every hot-path Annotate.
type spanAttr struct {
	key string
	val any
}

type spanCtxKey struct{}

type requestIDCtxKey struct{}

// StartRootSpan opens a span unconditionally — the root of a new trace
// (or a child, when ctx already carries a span) — and returns a
// context carrying it. Call it where a trace tree is wanted; cheap
// hot paths below it use StartSpan, which only materializes spans
// under such a root.
func StartRootSpan(ctx context.Context, name string) (context.Context, *Span) {
	s := &Span{name: name, start: time.Now()}
	if parent := SpanFrom(ctx); parent != nil {
		parent.mu.Lock()
		parent.children = append(parent.children, s)
		parent.mu.Unlock()
	}
	return context.WithValue(ctx, spanCtxKey{}, s), s
}

// StartSpan opens a span named name as a child of the span in ctx.
// When ctx carries no span — nobody opened a root, so nobody will ever
// render this trace — it returns ctx unchanged and a nil (no-op) span,
// keeping untraced hot paths allocation-free. Span names are
// dot-scoped, subsystem first: "http.request", "cache.lookup",
// "tuner.predict", "job.execute", "engine.measure", "pipeline.wave".
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	if SpanFrom(ctx) == nil {
		return ctx, nil
	}
	return StartRootSpan(ctx, name)
}

// SpanFrom returns the span carried by ctx, or nil.
func SpanFrom(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(spanCtxKey{}).(*Span)
	return s
}

// End closes the span and returns its duration. Repeated calls keep
// the first duration; a nil span returns 0 (so callers that feed a
// histogram from a maybe-nil span must time the work themselves).
func (s *Span) End() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ended {
		s.dur = time.Since(s.start)
		s.ended = true
	}
	return s.dur
}

// Annotate attaches a key=value attribute shown in the rendered tree.
// The value is stored as-is and formatted only if the tree is rendered,
// so callers should hand over immutable values. Annotating a nil span
// is a no-op.
func (s *Span) Annotate(key string, value any) *Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, spanAttr{key: key, val: value})
	s.mu.Unlock()
	return s
}

// Render returns the span tree as an indented multi-line string, one
// span per line: name, duration, then attributes. A nil span renders
// as "".
func (s *Span) Render() string {
	if s == nil {
		return ""
	}
	var b strings.Builder
	s.render(&b, 0)
	return strings.TrimRight(b.String(), "\n")
}

func (s *Span) render(b *strings.Builder, depth int) {
	s.mu.Lock()
	dur := s.dur
	open := !s.ended
	if open {
		dur = time.Since(s.start)
	}
	attrs := make([]spanAttr, len(s.attrs))
	copy(attrs, s.attrs)
	children := make([]*Span, len(s.children))
	copy(children, s.children)
	s.mu.Unlock()

	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
	fmt.Fprintf(b, "%s %s", s.name, dur.Round(time.Microsecond))
	if open {
		b.WriteString(" (open)")
	}
	for _, a := range attrs {
		fmt.Fprintf(b, " %s=%v", a.key, a.val)
	}
	b.WriteByte('\n')
	for _, c := range children {
		c.render(b, depth+1)
	}
}

// NewRequestID returns a fresh opaque request identifier, 8 random
// bytes hex-encoded with a "req-" prefix.
func NewRequestID() string {
	var buf [8]byte
	if _, err := rand.Read(buf[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; fall back
		// to a time-derived ID rather than crashing the serving path.
		return fmt.Sprintf("req-t%x", time.Now().UnixNano())
	}
	return "req-" + hex.EncodeToString(buf[:])
}

// WithRequestID returns a context carrying the request ID.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDCtxKey{}, id)
}

// RequestIDFrom returns the request ID carried by ctx, or "".
func RequestIDFrom(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	id, _ := ctx.Value(requestIDCtxKey{}).(string)
	return id
}
