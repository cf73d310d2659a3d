package grid

import (
	"math"
	"runtime"
	"testing"
	"testing/quick"
)

func TestDiagLenSmall(t *testing.T) {
	// 4x6 is the paper's Figure 1 example; check the square 4x4 profile
	// explicitly: 1,2,3,4,3,2,1.
	want := []int{1, 2, 3, 4, 3, 2, 1}
	for d, w := range want {
		if got := DiagLenRect(4, 4, d); got != w {
			t.Errorf("DiagLenRect(4, 4, %d) = %d, want %d", d, got, w)
		}
	}
	if DiagLenRect(4, 4, -1) != 0 || DiagLenRect(4, 4, 7) != 0 {
		t.Error("out-of-range diagonals must have length 0")
	}
}

func TestNumDiags(t *testing.T) {
	for _, tc := range []struct{ dim, want int }{{1, 1}, {2, 3}, {4, 7}, {500, 999}} {
		if got := NumDiagsRect(tc.dim, tc.dim); got != tc.want {
			t.Errorf("NumDiagsRect(%d, %d) = %d, want %d", tc.dim, tc.dim, got, tc.want)
		}
	}
}

func TestDiagLensSumToCells(t *testing.T) {
	// Property: the diagonal lengths of a dim x dim grid sum to dim².
	f := func(raw uint8) bool {
		dim := int(raw)%100 + 1
		sum := 0
		for d := 0; d < NumDiagsRect(dim, dim); d++ {
			sum += DiagLenRect(dim, dim, d)
		}
		return sum == dim*dim
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDiagCellRoundTrip(t *testing.T) {
	// Property: every cell of diagonal d maps back to diagonal d and lies
	// in bounds.
	f := func(rawDim, rawD uint8) bool {
		dim := int(rawDim)%60 + 1
		d := int(rawD) % NumDiagsRect(dim, dim)
		for i := 0; i < DiagLenRect(dim, dim, d); i++ {
			r, c := DiagCellRect(dim, dim, d, i)
			if r < 0 || r >= dim || c < 0 || c >= dim || r+c != d {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDiagCellsDistinct(t *testing.T) {
	// Every cell must appear on exactly one diagonal at exactly one index.
	dim := 23
	seen := make(map[int]bool)
	for d := 0; d < NumDiagsRect(dim, dim); d++ {
		for i := 0; i < DiagLenRect(dim, dim, d); i++ {
			r, c := DiagCellRect(dim, dim, d, i)
			idx := r*dim + c
			if seen[idx] {
				t.Fatalf("cell (%d,%d) visited twice", r, c)
			}
			seen[idx] = true
		}
	}
	if len(seen) != dim*dim {
		t.Fatalf("visited %d cells, want %d", len(seen), dim*dim)
	}
}

func TestCellsUpToDiag(t *testing.T) {
	// Cross-check the closed form against direct summation.
	for _, dim := range []int{1, 2, 3, 7, 19, 64} {
		sum := 0
		for d := 0; d < NumDiagsRect(dim, dim); d++ {
			sum += DiagLenRect(dim, dim, d)
			if got := CellsUpToDiagRect(dim, dim, d); got != sum {
				t.Fatalf("CellsUpToDiagRect(%d, %d, %d) = %d, want %d", dim, dim, d, got, sum)
			}
		}
		if CellsUpToDiagRect(dim, dim, -1) != 0 {
			t.Fatalf("CellsUpToDiagRect(%d, %d, -1) != 0", dim, dim)
		}
		if CellsUpToDiagRect(dim, dim, NumDiagsRect(dim, dim)+5) != dim*dim {
			t.Fatalf("CellsUpToDiag past end must be dim²")
		}
	}
}

func TestCellsInDiagRange(t *testing.T) {
	dim := 10
	if got := CellsInDiagRangeRect(dim, dim, 0, NumDiagsRect(dim, dim)-1); got != 100 {
		t.Errorf("full range = %d, want 100", got)
	}
	if got := CellsInDiagRangeRect(dim, dim, 5, 4); got != 0 {
		t.Errorf("empty range = %d, want 0", got)
	}
	if got := CellsInDiagRangeRect(dim, dim, 9, 9); got != DiagLenRect(dim, dim, 9) {
		t.Errorf("main diagonal = %d, want %d", got, DiagLenRect(dim, dim, 9))
	}
}

func TestElemBytes(t *testing.T) {
	// The paper: dsize=5 means 8 + 5*8 = 48 bytes; dsize=1 means 16 bytes.
	if got := ElemBytes(5); got != 48 {
		t.Errorf("ElemBytes(5) = %d, want 48", got)
	}
	if got := ElemBytes(1); got != 16 {
		t.Errorf("ElemBytes(1) = %d, want 16", got)
	}
	if got := ElemBytes(0); got != 8 {
		t.Errorf("ElemBytes(0) = %d, want 8", got)
	}
}

func TestGridAccessors(t *testing.T) {
	g := NewRect(5, 5, 3)
	g.SetA(2, 3, 42)
	g.SetB(2, 3, -7)
	g.SetFloat(2, 3, 1, 3.5)
	if g.A(2, 3) != 42 || g.B(2, 3) != -7 || g.Float(2, 3, 1) != 3.5 {
		t.Error("accessor round trip failed")
	}
	if g.A(3, 2) != 0 {
		t.Error("unrelated cell modified")
	}
	if g.Rows() != 5 || g.Cols() != 5 || g.DSize() != 3 || len(g.IntA) != 25 || len(g.Floats) != 75 {
		t.Error("shape accessors wrong")
	}
}

func TestCloneEqual(t *testing.T) {
	g := NewRect(6, 6, 2)
	g.SetA(1, 1, 9)
	g.SetFloat(5, 5, 1, 2.25)
	c := g.Clone()
	if !g.Equal(c) {
		t.Fatal("clone not equal")
	}
	c.SetA(0, 0, 1)
	if g.Equal(c) {
		t.Fatal("mutating clone must not affect original equality")
	}
	if g.Equal(NewRect(6, 6, 1)) || g.Equal(NewRect(7, 7, 2)) {
		t.Fatal("different shapes must not be equal")
	}
	b := g.Clone()
	b.SetB(3, 4, 1)
	if g.Equal(b) {
		t.Fatal("grids differing only in IntB must not be equal")
	}
	f := g.Clone()
	f.SetFloat(0, 0, 0, math.NaN())
	if f.Equal(f.Clone()) {
		t.Fatal("floats compare with ==, so a NaN cell must not equal itself")
	}
}

func TestSetKeepsLow32Bits(t *testing.T) {
	g := NewRect(2, 2, 0)
	for _, v := range []int64{math.MaxInt32 + 5, 1<<40 | 7, -7, math.MinInt32 - 3, math.MinInt64} {
		g.SetA(1, 0, v)
		g.SetB(0, 1, v)
		want := int64(int32(v))
		if got := g.A(1, 0); got != want {
			t.Errorf("SetA(%d) read back %d, want %d", v, got, want)
		}
		if got := g.B(0, 1); got != want {
			t.Errorf("SetB(%d) read back %d, want %d", v, got, want)
		}
	}
}

// TestGridBytesPerCell pins the host cell at the modelled element size:
// one NewRect allocates ElemBytes(dsize) bytes per cell plus a fixed
// header, so the cost model prices the bytes a sweep actually touches.
// Each size takes the least of a few measurements, as the runtime's own
// goroutines can allocate between the two ReadMemStats calls.
func TestGridBytesPerCell(t *testing.T) {
	const rows, cols, header = 512, 512, 1024
	var sink *Grid
	for _, dsize := range []int{0, 1, 2, 4, 5} {
		got := uint64(math.MaxUint64)
		for range 5 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			sink = NewRect(rows, cols, dsize)
			runtime.ReadMemStats(&after)
			got = min(got, after.TotalAlloc-before.TotalAlloc)
		}
		limit := uint64(rows*cols*ElemBytes(dsize) + header)
		t.Logf("dsize %d: %d bytes for %d cells, %.2f bytes per cell (ElemBytes %d)",
			dsize, got, rows*cols, float64(got)/(rows*cols), ElemBytes(dsize))
		if got > limit {
			t.Errorf("dsize %d: NewRect(%d, %d) allocated %d bytes, want at most %d",
				dsize, rows, cols, got, limit)
		}
	}
	runtime.KeepAlive(sink)
}

func TestNewPanics(t *testing.T) {
	for _, tc := range []struct{ dim, dsize int }{{0, 1}, {-3, 0}, {4, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewRect(%d, %d, %d) should panic", tc.dim, tc.dim, tc.dsize)
				}
			}()
			NewRect(tc.dim, tc.dim, tc.dsize)
		}()
	}
}
