package grid

import (
	"testing"
	"testing/quick"
)

func TestDiagLenRectFigure1(t *testing.T) {
	// The paper's Figure 1 example is a 4x6 grid: lengths rise to
	// min(rows,cols)=4, plateau, and fall back to 1.
	want := []int{1, 2, 3, 4, 4, 4, 3, 2, 1}
	if got := NumDiagsRect(4, 6); got != len(want) {
		t.Fatalf("NumDiagsRect(4,6) = %d, want %d", got, len(want))
	}
	for d, w := range want {
		if got := DiagLenRect(4, 6, d); got != w {
			t.Errorf("DiagLenRect(4,6,%d) = %d, want %d", d, got, w)
		}
	}
	if DiagLenRect(4, 6, -1) != 0 || DiagLenRect(4, 6, 9) != 0 {
		t.Error("out-of-range diagonals must have length 0")
	}
}

func TestRectDiagLensSumToCells(t *testing.T) {
	// Property: the diagonal lengths of a rows x cols grid sum to
	// rows*cols, in both orientations.
	f := func(rawR, rawC uint8) bool {
		rows := int(rawR)%70 + 1
		cols := int(rawC)%70 + 1
		sum := 0
		for d := 0; d < NumDiagsRect(rows, cols); d++ {
			sum += DiagLenRect(rows, cols, d)
		}
		return sum == rows*cols
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCellsUpToDiagRectClosedForm(t *testing.T) {
	// Cross-check the closed form against direct summation for tall,
	// wide and degenerate shapes.
	for _, shape := range [][2]int{{1, 1}, {1, 9}, {9, 1}, {3, 8}, {8, 3}, {7, 7}, {19, 64}, {64, 19}} {
		rows, cols := shape[0], shape[1]
		sum := 0
		for d := 0; d < NumDiagsRect(rows, cols); d++ {
			sum += DiagLenRect(rows, cols, d)
			if got := CellsUpToDiagRect(rows, cols, d); got != sum {
				t.Fatalf("CellsUpToDiagRect(%d,%d,%d) = %d, want %d", rows, cols, d, got, sum)
			}
		}
		if CellsUpToDiagRect(rows, cols, -1) != 0 {
			t.Fatalf("CellsUpToDiagRect(%d,%d,-1) != 0", rows, cols)
		}
		if CellsUpToDiagRect(rows, cols, NumDiagsRect(rows, cols)+3) != rows*cols {
			t.Fatalf("CellsUpToDiagRect past end must be rows*cols")
		}
	}
}

func TestRectDiagCellRoundTrip(t *testing.T) {
	// Property: every cell of diagonal d maps back to diagonal d and lies
	// in bounds.
	f := func(rawR, rawC, rawD uint8) bool {
		rows := int(rawR)%40 + 1
		cols := int(rawC)%40 + 1
		d := int(rawD) % NumDiagsRect(rows, cols)
		for i := 0; i < DiagLenRect(rows, cols, d); i++ {
			r, c := DiagCellRect(rows, cols, d, i)
			if r < 0 || r >= rows || c < 0 || c >= cols || r+c != d {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRectDiagCellsDistinct(t *testing.T) {
	// Every cell of a rectangular grid appears on exactly one diagonal at
	// exactly one index.
	rows, cols := 13, 29
	seen := make(map[int]bool)
	for d := 0; d < NumDiagsRect(rows, cols); d++ {
		for i := 0; i < DiagLenRect(rows, cols, d); i++ {
			r, c := DiagCellRect(rows, cols, d, i)
			idx := r*cols + c
			if seen[idx] {
				t.Fatalf("cell (%d,%d) visited twice", r, c)
			}
			seen[idx] = true
		}
	}
	if len(seen) != rows*cols {
		t.Fatalf("visited %d cells, want %d", len(seen), rows*cols)
	}
}

func TestNewRectAccessors(t *testing.T) {
	g := NewRect(3, 7, 2)
	if g.Rows() != 3 || g.Cols() != 7 || len(g.IntA) != 21 {
		t.Error("rect shape accessors wrong")
	}
	if n := NumDiagsRect(g.Rows(), g.Cols()); n != 9 {
		t.Errorf("NumDiagsRect = %d, want 9", n)
	}
	g.SetA(2, 6, 5)
	g.SetFloat(0, 6, 1, 1.5)
	if g.A(2, 6) != 5 || g.Float(0, 6, 1) != 1.5 {
		t.Error("rect accessor round trip failed")
	}
	c := g.Clone()
	if !g.Equal(c) {
		t.Error("rect clone not equal")
	}
	if g.Equal(NewRect(7, 3, 2)) {
		t.Error("transposed shapes must not be equal")
	}
}
