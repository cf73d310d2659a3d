package plan

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/grid"
)

func mustBuild(t *testing.T, inst Instance, par Params) *Plan {
	t.Helper()
	p, err := Build(inst, par)
	if err != nil {
		t.Fatalf("Build(%v, %v): %v", inst, par, err)
	}
	return p
}

func TestGPUCountEncoding(t *testing.T) {
	// The paper overloads band and halo to encode gpu-count.
	for _, tc := range []struct {
		band, halo, want int
	}{
		{-1, -1, 0}, {5, -1, 1}, {5, 0, 2}, {5, 3, 2},
	} {
		p := Params{CPUTile: 4, Band: tc.band, GPUTile: 1, Halo: tc.halo}
		if got := p.GPUCount(); got != tc.want {
			t.Errorf("band=%d halo=%d: gpu-count=%d, want %d", tc.band, tc.halo, got, tc.want)
		}
	}
}

func TestNormalizeCollapsesAllCPUConfigs(t *testing.T) {
	a := Params{CPUTile: 4, Band: -1, GPUTile: 8, Halo: 7}.Normalize()
	b := Params{CPUTile: 4, Band: -1, GPUTile: 1, Halo: -1}.Normalize()
	if a != b {
		t.Errorf("all-CPU configs must normalize identically: %v vs %v", a, b)
	}
}

func TestThreePhasePartition(t *testing.T) {
	// Figure 2's 20x20 grid: CPU tiles of 4, a GPU band in the middle.
	inst := Instance{Dim: 20, TSize: 10, DSize: 1}
	p := mustBuild(t, inst, Params{CPUTile: 4, Band: 5, GPUTile: 1, Halo: -1})
	if p.GLo != 14 || p.GHi != 24 {
		t.Errorf("band [%d,%d], want [14,24]", p.GLo, p.GHi)
	}
	if p.P1Hi != 13 || p.P3Lo != 25 {
		t.Errorf("CPU phases wrong: p1 ends %d, p3 starts %d", p.P1Hi, p.P3Lo)
	}
	if p.GPUDiags() != 11 {
		t.Errorf("GPUDiags = %d, want 2*5+1 = 11", p.GPUDiags())
	}
}

func TestPhasesPartitionAllCells(t *testing.T) {
	// Property: for any valid configuration, the three phases cover every
	// cell exactly once.
	f := func(rawDim, rawBand, rawTile uint8) bool {
		dim := int(rawDim)%200 + 2
		band := int(rawBand)%(2*dim+1) - 1
		ct := int(rawTile)%dim + 1
		inst := Instance{Dim: dim, TSize: 5, DSize: 1}
		p, err := Build(inst, Params{CPUTile: ct, Band: band, GPUTile: 1, Halo: -1})
		if err != nil {
			return false
		}
		cpu1 := grid.CellsInDiagRangeRect(dim, dim, p.P1Lo, p.P1Hi)
		gpu := p.GPUCells()
		cpu3 := grid.CellsInDiagRangeRect(dim, dim, p.P3Lo, p.P3Hi)
		return cpu1+gpu+cpu3 == dim*dim
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBandMinusOneIsAllCPU(t *testing.T) {
	inst := Instance{Dim: 50, TSize: 10, DSize: 1}
	p := mustBuild(t, inst, Params{CPUTile: 8, Band: -1, GPUTile: 1, Halo: -1})
	if p.GPUDiags() != 0 || p.GPUCells() != 0 {
		t.Error("band=-1 must offload nothing")
	}
	if allGPU(p) {
		t.Error("all-CPU plan reported as all-GPU")
	}
}

// allGPU reports whether the plan offloads every diagonal (null CPU
// phases, Section 2's "computation carried out entirely within the GPU").
func allGPU(p *Plan) bool {
	return p.GLo == 0 && p.GHi == p.Inst.NumDiags()-1
}

func TestFullBandIsAllGPU(t *testing.T) {
	inst := Instance{Dim: 50, TSize: 10, DSize: 1}
	// Band >= dim-1 covers every diagonal (the paper's null phase 1/3).
	p := mustBuild(t, inst, Params{CPUTile: 1, Band: 49, GPUTile: 1, Halo: -1})
	if !allGPU(p) {
		t.Error("band=dim-1 must offload everything")
	}
	if p.GPUCells() != 2500 {
		t.Errorf("gpu=%d, want 2500", p.GPUCells())
	}
	// Band beyond dim-1 (allowed up to 2*dim-1 in Table 3) clamps.
	p2 := mustBuild(t, inst, Params{CPUTile: 1, Band: 99, GPUTile: 1, Halo: -1})
	if !allGPU(p2) {
		t.Error("oversized band must clamp to all-GPU")
	}
}

func TestBuildRejectsInvalid(t *testing.T) {
	inst := Instance{Dim: 100, TSize: 10, DSize: 1}
	for _, par := range []Params{
		{CPUTile: 0, Band: -1, GPUTile: 1, Halo: -1},
		{CPUTile: 101, Band: -1, GPUTile: 1, Halo: -1},
		{CPUTile: 4, Band: 200, GPUTile: 1, Halo: -1},
		{CPUTile: 4, Band: -2, GPUTile: 1, Halo: -1},
		{CPUTile: 4, Band: 5, GPUTile: 0, Halo: -1},
		{CPUTile: 4, Band: 5, GPUTile: 1, Halo: 1000},
		{CPUTile: 4, Band: 5, GPUTile: 1, Halo: -3},
	} {
		_, err := Build(inst, par)
		if err == nil {
			t.Errorf("Build accepted invalid %v", par)
			continue
		}
		if cerr := Check(inst, par); cerr == nil || cerr.Error() != err.Error() {
			t.Errorf("Check(%v) = %v, Build error %v", par, cerr, err)
		}
	}
	if _, err := Build(Instance{Dim: 0, TSize: 1}, Params{CPUTile: 1, Band: -1, Halo: -1}); err == nil {
		t.Error("Build accepted dim=0")
	}
	if _, err := Build(Instance{Dim: 5, TSize: 0}, Params{CPUTile: 1, Band: -1, Halo: -1}); err == nil {
		t.Error("Build accepted tsize=0")
	}
}

// TestCheckAllocationFree: searches validate every candidate through
// Check, which must not allocate the plan Build returns.
func TestCheckAllocationFree(t *testing.T) {
	inst := Instance{Rows: 300, Cols: 420, TSize: 10, DSize: 1}
	par := Params{CPUTile: 4, Band: 100, GPUTile: 8, Halo: 20}
	if err := Check(inst, par); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { _ = Check(inst, par) }); n != 0 {
		t.Errorf("Check allocated %v times per call, want 0", n)
	}
}

func TestMaxHalo(t *testing.T) {
	inst := Instance{Dim: 100, TSize: 10, DSize: 1}
	// Band 10: first offloaded diagonal is 89, length 90 -> max halo 45.
	p := mustBuild(t, inst, Params{CPUTile: 4, Band: 10, GPUTile: 1, Halo: -1})
	if got := p.MaxHalo(); got != 45 {
		t.Errorf("MaxHalo = %d, want 45", got)
	}
	if got := MaxHaloFor(inst, 10); got != 45 {
		t.Errorf("MaxHaloFor = %d, want 45", got)
	}
	if got := MaxHaloFor(inst, -1); got != -1 {
		t.Errorf("MaxHaloFor(band=-1) = %d, want -1", got)
	}
	// A valid halo at the cap must build.
	mustBuild(t, inst, Params{CPUTile: 4, Band: 10, GPUTile: 1, Halo: 45})
}

func TestRedundantPointsTradeoff(t *testing.T) {
	inst := Instance{Dim: 200, TSize: 10, DSize: 1}
	// Larger halos mean fewer swaps (TestSwapSchedule in internal/engine)
	// but more redundant computation.
	small := mustBuild(t, inst, Params{CPUTile: 4, Band: 50, GPUTile: 1, Halo: 2})
	big := mustBuild(t, inst, Params{CPUTile: 4, Band: 50, GPUTile: 1, Halo: 20})
	if small.RedundantPoints() >= big.RedundantPoints() {
		t.Error("larger halo must recompute more")
	}
	if mustBuild(t, inst, Params{CPUTile: 4, Band: 50, GPUTile: 1, Halo: -1}).RedundantPoints() != 0 {
		t.Error("single GPU has no redundant computation")
	}
}

func TestCPUTileDiagsConserveCells(t *testing.T) {
	// Property: tile-diagonal cell counts sum exactly to the region size.
	f := func(rawDim, rawCt, rawLo, rawHi uint8) bool {
		dim := int(rawDim)%150 + 1
		ct := int(rawCt)%dim + 1
		nd := grid.NumDiagsRect(dim, dim)
		lo := int(rawLo) % nd
		hi := int(rawHi) % nd
		if hi < lo {
			lo, hi = hi, lo
		}
		sum := 0
		for td := range CPUTileDiagsRect(dim, dim, ct, lo, hi) {
			if td.NTiles < 1 {
				return false
			}
			sum += td.Cells
		}
		return sum == grid.CellsInDiagRangeRect(dim, dim, lo, hi)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCPUTileDiagsEmptyRegion(t *testing.T) {
	if got := slices.Collect(CPUTileDiagsRect(100, 100, 4, 5, 4)); got != nil {
		t.Errorf("empty region must yield nothing, got %v", got)
	}
}

func TestCPUTileDiagsUntiled(t *testing.T) {
	// ct=1: one tile-diagonal per cell-diagonal, NTiles = diagonal length.
	dim := 10
	tds := slices.Collect(CPUTileDiagsRect(dim, dim, 1, 0, grid.NumDiagsRect(dim, dim)-1))
	if len(tds) != grid.NumDiagsRect(dim, dim) {
		t.Fatalf("got %d tile-diagonals, want %d", len(tds), grid.NumDiagsRect(dim, dim))
	}
	for i, td := range tds {
		if td.NTiles != grid.DiagLenRect(dim, dim, i) || td.Cells != grid.DiagLenRect(dim, dim, i) {
			t.Fatalf("tile-diag %d = %+v, want NTiles=Cells=%d", i, td, grid.DiagLenRect(dim, dim, i))
		}
	}
	// Stopping early ends the walk.
	n := 0
	for range CPUTileDiagsRect(dim, dim, 1, 0, grid.NumDiagsRect(dim, dim)-1) {
		if n++; n == 3 {
			break
		}
	}
	if n != 3 {
		t.Errorf("early break visited %d tile-diagonals, want 3", n)
	}
}

func TestInstanceString(t *testing.T) {
	s := Instance{Dim: 500, TSize: 0.5, DSize: 0}.String()
	if s != "dim=500 tsize=0.5 dsize=0" {
		t.Errorf("String = %q", s)
	}
	ps := Params{CPUTile: 4, Band: 9, GPUTile: 2, Halo: 3}.String()
	if ps != "cpu-tile=4 band=9 gpu-count=2 gpu-tile=2 halo=3" {
		t.Errorf("Params.String = %q", ps)
	}
}

func TestShapeStringAndCacheKey(t *testing.T) {
	cases := []struct {
		in    Instance
		shape string
		key   string
	}{
		{Instance{Dim: 1900, TSize: 750, DSize: 4}, "1900", "1900|t=750|d=4"},
		{Instance{Rows: 1900, Cols: 1900, TSize: 750, DSize: 4}, "1900", "1900|t=750|d=4"},
		{Instance{Rows: 600, Cols: 1400, TSize: 0.5, DSize: 0}, "600x1400", "600x1400|t=0.5|d=0"},
		{Instance{Dim: 500, TSize: 12000, DSize: 1}, "500", "500|t=12000|d=1"},
	}
	for _, tc := range cases {
		if got := tc.in.ShapeString(); got != tc.shape {
			t.Errorf("%v.ShapeString() = %q, want %q", tc.in, got, tc.shape)
		}
		if got := tc.in.CacheKey(); got != tc.key {
			t.Errorf("%v.CacheKey() = %q, want %q", tc.in, got, tc.key)
		}
	}
	// The two spellings of a square must collide, and distinct instances
	// must not.
	sq := Instance{Dim: 700, TSize: 10, DSize: 1}
	rc := Instance{Rows: 700, Cols: 700, TSize: 10, DSize: 1}
	if sq.CacheKey() != rc.CacheKey() {
		t.Errorf("square spellings differ: %q vs %q", sq.CacheKey(), rc.CacheKey())
	}
	other := Instance{Dim: 700, TSize: 10, DSize: 2}
	if sq.CacheKey() == other.CacheKey() {
		t.Errorf("distinct instances collide on %q", sq.CacheKey())
	}
}

func TestInstanceLiveCells(t *testing.T) {
	dense := Instance{Dim: 10, TSize: 1}
	if dense.WorkCells() != 100 || dense.LiveFrac() != 1 {
		t.Errorf("dense: WorkCells=%d LiveFrac=%g", dense.WorkCells(), dense.LiveFrac())
	}
	masked := Instance{Dim: 10, TSize: 1, LiveCells: 55}
	if masked.WorkCells() != 55 || masked.LiveFrac() != 0.55 {
		t.Errorf("masked: WorkCells=%d LiveFrac=%g", masked.WorkCells(), masked.LiveFrac())
	}
	if err := masked.Validate(); err != nil {
		t.Errorf("masked instance invalid: %v", err)
	}
	if err := (Instance{Dim: 10, TSize: 1, LiveCells: 101}).Validate(); err == nil {
		t.Error("live cells above the rectangle must be rejected")
	}
	if err := (Instance{Dim: 10, TSize: 1, LiveCells: -1}).Validate(); err == nil {
		t.Error("negative live cells must be rejected")
	}

	// Dense instances keep the historical cache key; masked ones fork it.
	if k := dense.CacheKey(); k != masked.CacheKey()[:len(k)] || masked.CacheKey() == k {
		t.Errorf("cache keys: dense %q masked %q", k, masked.CacheKey())
	}
	if want := "10|t=1|d=0|live=55"; masked.CacheKey() != want {
		t.Errorf("masked CacheKey = %q, want %q", masked.CacheKey(), want)
	}
}
