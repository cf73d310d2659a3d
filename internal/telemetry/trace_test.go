package telemetry

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanTreeStructureAndRender(t *testing.T) {
	ctx, root := StartRootSpan(context.Background(), "http.request")
	root.Annotate("route", "tune").Annotate("request_id", "req-abc")

	cctx, child := StartSpan(ctx, "cache.lookup")
	child.Annotate("outcome", "miss")
	_, grand := StartSpan(cctx, "tuner.predict")
	grand.End()
	child.End()
	root.End()

	out := root.Render()
	lines := strings.Split(out, "\n")
	if len(lines) != 3 {
		t.Fatalf("rendered tree has %d lines, want 3:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "http.request ") || !strings.Contains(lines[0], "route=tune") {
		t.Fatalf("root line = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "  cache.lookup ") || !strings.Contains(lines[1], "outcome=miss") {
		t.Fatalf("child line = %q", lines[1])
	}
	if !strings.HasPrefix(lines[2], "    tuner.predict ") {
		t.Fatalf("grandchild line = %q", lines[2])
	}
	if strings.Contains(out, "(open)") {
		t.Fatalf("all spans ended but tree shows open: %s", out)
	}
}

// TestStartSpanWithoutRootIsNoOp pins the gating contract: on a path
// where nobody opened a root span (nothing will ever render the trace),
// StartSpan must return the context unchanged and a nil span whose
// methods are all safe no-ops.
func TestStartSpanWithoutRootIsNoOp(t *testing.T) {
	base := context.Background()
	ctx, s := StartSpan(base, "cache.lookup")
	if s != nil {
		t.Fatalf("StartSpan without a root returned %v, want nil", s)
	}
	if ctx != base {
		t.Fatal("StartSpan without a root should return the context unchanged")
	}
	// Every method must tolerate the nil receiver.
	if s.Annotate("k", "v").Annotate("k2", 2) != nil {
		t.Fatal("nil Annotate should return nil")
	}
	if s.End() != 0 || s.Duration() != 0 {
		t.Fatal("nil span durations should be 0")
	}
	if s.Name() != "" || s.Render() != "" {
		t.Fatal("nil span should render empty")
	}

	// Under a root the same call materializes a real child.
	rctx, root := StartRootSpan(base, "http.request")
	_, c := StartSpan(rctx, "cache.lookup")
	if c == nil {
		t.Fatal("StartSpan under a root returned nil")
	}
	c.End()
	root.End()
	if !strings.Contains(root.Render(), "cache.lookup") {
		t.Fatalf("child missing from tree:\n%s", root.Render())
	}
}

func TestSpanFromContext(t *testing.T) {
	if SpanFrom(context.Background()) != nil {
		t.Fatal("empty context should carry no span")
	}
	ctx, s := StartRootSpan(context.Background(), "x")
	if SpanFrom(ctx) != s {
		t.Fatal("SpanFrom should return the started span")
	}
}

func TestSpanEndIdempotentAndDuration(t *testing.T) {
	_, s := StartRootSpan(context.Background(), "x")
	time.Sleep(time.Millisecond)
	d1 := s.End()
	d2 := s.End()
	if d1 != d2 {
		t.Fatalf("End not idempotent: %v vs %v", d1, d2)
	}
	if d1 < time.Millisecond {
		t.Fatalf("duration %v shorter than the sleep", d1)
	}
	if s.Duration() != d1 {
		t.Fatalf("Duration() = %v, want %v", s.Duration(), d1)
	}
}

func TestOpenSpanRenders(t *testing.T) {
	_, s := StartRootSpan(context.Background(), "x")
	if !strings.Contains(s.Render(), "(open)") {
		t.Fatal("un-ended span should render as open")
	}
}

// TestSpanConcurrentChildren models a fan-out handler: many goroutines
// opening children of one parent. Run under -race in CI.
func TestSpanConcurrentChildren(t *testing.T) {
	ctx, root := StartRootSpan(context.Background(), "batch")
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, c := StartSpan(ctx, "item")
			c.Annotate("k", "v")
			c.End()
		}()
	}
	wg.Wait()
	root.End()
	if got := strings.Count(root.Render(), "item "); got != 32 {
		t.Fatalf("rendered %d children, want 32", got)
	}
}

func TestRequestIDRoundTrip(t *testing.T) {
	id := NewRequestID()
	if !strings.HasPrefix(id, "req-") || len(id) < 10 {
		t.Fatalf("odd request id %q", id)
	}
	if id == NewRequestID() {
		t.Fatal("request ids should be unique")
	}
	ctx := WithRequestID(context.Background(), id)
	if got := RequestIDFrom(ctx); got != id {
		t.Fatalf("RequestIDFrom = %q, want %q", got, id)
	}
	if RequestIDFrom(context.Background()) != "" {
		t.Fatal("empty context should carry no request id")
	}
}

// Duration returns the recorded duration (time so far if still open),
// or 0 on a nil span.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ended {
		return time.Since(s.start)
	}
	return s.dur
}

// Name returns the span's name, or "" on a nil span.
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}
