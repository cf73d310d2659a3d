package report

import (
	"strings"
	"testing"

	"repro/internal/stats"
)

func TestTableAlignment(t *testing.T) {
	tb := NewTable("system", "speedup")
	tb.Add("i3-540", 19.75)
	tb.Add("i7-2600K", 8.2)
	s := tb.String()
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 4 (header, rule, 2 rows)", len(lines))
	}
	if !strings.Contains(lines[0], "system") || !strings.Contains(lines[0], "speedup") {
		t.Error("header missing")
	}
	if !strings.Contains(s, "19.8") { // %.3g formatting
		t.Errorf("float formatting wrong:\n%s", s)
	}
}

func TestRenderHeatmap(t *testing.T) {
	h := stats.NewHeatmap([]int{500, 1900}, []int{10, 1000})
	_ = h.Set(500, 10, -1)     // sentinel: GPU unused
	_ = h.Set(500, 1000, 100)  //
	_ = h.Set(1900, 10, 500)   //
	_ = h.Set(1900, 1000, 900) // hottest
	s := RenderHeatmap(h, "band heatmap")
	if !strings.Contains(s, "band heatmap") {
		t.Error("missing title")
	}
	if !strings.Contains(s, "<") {
		t.Error("sentinel cell must render '<'")
	}
	if !strings.Contains(s, "legend") {
		t.Error("missing legend")
	}
	// The largest row label must print before the smallest (top-down dim).
	if strings.Index(s, "1900") > strings.Index(s, "500 ") {
		t.Error("rows must print largest-first")
	}
}

func TestRenderHeatmapMissingCell(t *testing.T) {
	h := stats.NewHeatmap([]int{1}, []int{1, 2})
	_ = h.Set(1, 1, 5)
	if !strings.Contains(RenderHeatmap(h, "x"), "?") {
		t.Error("unset cell must render '?'")
	}
}

func TestRenderViolin(t *testing.T) {
	xs := []float64{1, 1, 1.2, 1.4, 2, 3, 10}
	v := stats.NewViolin(xs, 16)
	s := RenderViolin(v, "dim=700 tsize=100", 30)
	if !strings.Contains(s, "n=7") {
		t.Error("missing sample count")
	}
	if !strings.Contains(s, "med=") || !strings.Contains(s, "#") {
		t.Errorf("violin body missing:\n%s", s)
	}
	// Empty violin must not panic.
	if out := RenderViolin(stats.Violin{}, "empty", 20); !strings.Contains(out, "n=0") {
		t.Error("empty violin header wrong")
	}
}

func TestBar(t *testing.T) {
	s := Bar([]string{"serial", "best"}, []float64{1, 20}, "x", 20)
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 bars, got %d", len(lines))
	}
	if strings.Count(lines[1], "#") != 20 {
		t.Errorf("max bar must be full width: %q", lines[1])
	}
	if strings.Count(lines[0], "#") >= strings.Count(lines[1], "#") {
		t.Error("bars must scale with value")
	}
}
