package core

import (
	"bytes"
	"testing"

	"repro/internal/grid"
	"repro/internal/hw"
	"repro/internal/plan"
)

// rectSpace is tinySpace plus rectangular shapes, exercising the search
// over rows != cols instances.
func rectSpace() Space {
	s := tinySpace()
	s.Dims = []int{300}
	s.Rects = [][2]int{{200, 800}, {900, 300}}
	s.TSizes = []float64{10, 3000}
	return s
}

func TestSpaceEnumeratesRectInstances(t *testing.T) {
	s := rectSpace()
	insts := s.Instances()
	want := (1 + 2) * 2 * 2 // (1 dim + 2 rects) x 2 tsizes x 2 dsizes
	if len(insts) != want {
		t.Fatalf("instances = %d, want %d", len(insts), want)
	}
	rects := 0
	for _, in := range insts {
		if err := in.Validate(); err != nil {
			t.Fatalf("invalid instance %v: %v", in, err)
		}
		if !in.Square() {
			rects++
		}
	}
	if rects != 2*2*2 {
		t.Errorf("rect instances = %d, want 8", rects)
	}
}

func TestSpaceDedupesSquareRects(t *testing.T) {
	// A square {n, n} entry in Rects is the same instance as n in Dims;
	// it must not be enumerated (and later merged by CSV persistence)
	// twice.
	s := tinySpace()
	s.Dims = []int{300}
	s.Rects = [][2]int{{300, 300}, {200, 800}}
	s.TSizes = []float64{10}
	s.DSizes = []int{1}
	insts := s.Instances()
	if len(insts) != 2 {
		t.Fatalf("instances = %v, want [dim=300, 200x800]", insts)
	}
	seen := map[plan.Instance]bool{}
	for _, in := range insts {
		if key := in.Normalize(); seen[key] {
			t.Fatalf("duplicate instance %v", in)
		} else {
			seen[key] = true
		}
	}
}

func TestExhaustiveOverRectSpace(t *testing.T) {
	sys := hw.I7_2600K()
	sr, err := Exhaustive(sys, rectSpace(), SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sr.Evaluations() != rectSpace().Size(sys) {
		t.Fatalf("evaluations = %d, want %d", sr.Evaluations(), rectSpace().Size(sys))
	}
	inst := plan.Instance{Rows: 200, Cols: 800, TSize: 3000, DSize: 1}
	ir, ok := sr.For(inst)
	if !ok {
		t.Fatal("rect instance missing from search result")
	}
	if len(ir.Points) == 0 {
		t.Fatal("rect instance has no evaluated configurations")
	}
	best, ok := ir.Best()
	if !ok {
		t.Fatal("rect instance has no uncensored best point")
	}
	if best.RTimeNs <= 0 {
		t.Errorf("best rtime %v not positive", best.RTimeNs)
	}
	// Every point's plan must cover the full rectangle.
	for _, p := range ir.Points[:min(20, len(ir.Points))] {
		pl, err := plan.Build(inst, p.Par)
		if err != nil {
			t.Fatalf("recorded config invalid: %v", err)
		}
		rows, cols := inst.Shape()
		if got := grid.CellsInDiagRangeRect(rows, cols, pl.P1Lo, pl.P1Hi) + pl.GPUCells() +
			grid.CellsInDiagRangeRect(rows, cols, pl.P3Lo, pl.P3Hi); got != inst.Cells() {
			t.Fatalf("%v: phases cover %d of %d cells", p.Par, got, inst.Cells())
		}
	}
}

func TestSearchCSVRoundTripPreservesRectShapes(t *testing.T) {
	sys := hw.I3_540()
	orig, err := Exhaustive(sys, rectSpace(), SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Evaluations() != orig.Evaluations() {
		t.Fatalf("evaluations %d != %d", back.Evaluations(), orig.Evaluations())
	}
	for i := range orig.Instances {
		a, b := &orig.Instances[i], &back.Instances[i]
		ar, ac := a.Inst.Shape()
		br, bc := b.Inst.Shape()
		if ar != br || ac != bc || a.Inst.TSize != b.Inst.TSize || a.Inst.DSize != b.Inst.DSize {
			t.Fatalf("instance changed across round trip: %v vs %v", a.Inst, b.Inst)
		}
	}
	if len(back.Space.Rects) != 2 {
		t.Errorf("rect shapes not recovered: %v", back.Space.Rects)
	}
	// Training still works on the mixed square/rect sweep (rect instances
	// are evaluation-only and skipped by the square sampling grid).
	if _, err := Train(back, DefaultTrainOptions()); err != nil {
		t.Errorf("training on a sweep containing rect instances: %v", err)
	}
}
