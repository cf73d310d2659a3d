package apps

import (
	"context"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/cpuexec"
	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/hw"
	"repro/internal/kernels"
	"repro/internal/plan"
)

func testApp() App {
	return App{
		Name:        "blur",
		Description: "test app",
		Params: []ParamSpec{
			{Name: "passes", Description: "smoothing passes", Default: 2, Integer: true, Min: 1, Max: 16},
			{Name: "weight", Description: "blend weight", Default: 0.5, Min: 0, Max: 1},
		},
		Granularity: func(v Values) (float64, int, error) { return 3 * v["passes"], 1, nil },
		Kernel: func(rows, cols int, v Values) (kernels.Kernel, error) {
			return kernels.NewSynthetic(int(3*v["passes"]), 1), nil
		},
	}
}

// registerForTest registers a in the catalog and removes it again when
// the test ends, so the test app never leaks into the catalog tests.
func registerForTest(t *testing.T, a App) error {
	t.Helper()
	if err := Register(a); err != nil {
		return err
	}
	t.Cleanup(func() {
		catalogMu.Lock()
		delete(catalog, a.Name)
		catalogMu.Unlock()
	})
	return nil
}

func TestRegistryRegisterAndLookup(t *testing.T) {
	builtins := Names()
	if err := registerForTest(t, testApp()); err != nil {
		t.Fatal(err)
	}
	if _, ok := Lookup("blur"); !ok {
		t.Fatal("registered app not found")
	}
	if err := Register(testApp()); err == nil {
		t.Error("duplicate registration must be rejected")
	}
	if err := Register(All()[0]); err == nil {
		t.Error("duplicate registration of a built-in must be rejected")
	}
	want := append(builtins, "blur")
	sort.Strings(want)
	if got := Names(); !slices.Equal(got, want) {
		t.Errorf("Names = %v, want %v", got, want)
	}
	if err := UnknownAppError("nope"); !strings.Contains(err.Error(), "blur") {
		t.Errorf("unknown-app error %q does not enumerate the catalog", err)
	}
}

func TestRegistryValidation(t *testing.T) {
	base := testApp()
	cases := []struct {
		name   string
		mutate func(*App)
	}{
		{"empty name", func(a *App) { a.Name = "" }},
		{"uppercase name", func(a *App) { a.Name = "Blur" }},
		{"no description", func(a *App) { a.Description = "" }},
		{"no granularity", func(a *App) { a.Granularity = nil }},
		{"no kernel", func(a *App) { a.Kernel = nil }},
		{"dup param", func(a *App) { a.Params = append(a.Params, a.Params[0]) }},
		{"bad param name", func(a *App) { a.Params[0].Name = "Bad Name" }},
		{"default outside range", func(a *App) { a.Params[0].Default = 99 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := base
			a.Params = append([]ParamSpec(nil), base.Params...)
			tc.mutate(&a)
			if err := registerForTest(t, a); err == nil {
				t.Error("invalid registration accepted")
			}
		})
	}
}

func TestResolve(t *testing.T) {
	a := testApp()
	v, err := a.Resolve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if v["passes"] != 2 || v["weight"] != 0.5 {
		t.Errorf("defaults = %v", v)
	}
	if _, err := a.Resolve(Values{"bogus": 1}); err == nil {
		t.Error("unknown parameter accepted")
	}
	if _, err := a.Resolve(Values{"passes": 2.5}); err == nil {
		t.Error("non-integral integer parameter accepted")
	}
	if _, err := a.Resolve(Values{"passes": 99}); err == nil {
		t.Error("out-of-range parameter accepted")
	}
	// The input map must not be mutated by default filling.
	in := Values{"passes": 4}
	if _, err := a.Resolve(in); err != nil {
		t.Fatal(err)
	}
	if len(in) != 1 {
		t.Errorf("Resolve mutated its input: %v", in)
	}

	// Required parameters: the synthetic trainer.
	syn, ok := Lookup("synthetic")
	if !ok {
		t.Fatal("synthetic not registered")
	}
	if _, err := syn.Resolve(nil); err == nil || !strings.Contains(err.Error(), "required") {
		t.Errorf("missing required parameter error = %v", err)
	}
	if _, _, err := syn.InstanceFor(100, 100, Values{"tsize": 10, "dsize": 1}); err != nil {
		t.Errorf("synthetic with explicit granularity: %v", err)
	}
}

func TestShapeConstraints(t *testing.T) {
	nus, ok := Lookup("nussinov")
	if !ok {
		t.Fatal("nussinov not registered")
	}
	if _, _, err := nus.InstanceFor(600, 1400, nil); err == nil {
		t.Error("square-only app accepted a rectangle")
	}
	if _, _, err := nus.InstanceFor(0, 0, nil); err == nil {
		t.Error("empty shape accepted")
	}
	if _, _, err := nus.InstanceFor(200, 200, nil); err != nil {
		t.Errorf("square instance rejected: %v", err)
	}
	sw, _ := Lookup("swaffine")
	if _, _, err := sw.InstanceFor(600, 1400, nil); err != nil {
		t.Errorf("rectangular swaffine rejected: %v", err)
	}
}

// TestBuiltinCatalogComplete pins the acceptance floor: the four paper
// apps plus the extended workloads (including the irregular
// morphological-reconstruction app), every one resolvable to a valid
// instance and kernel.
func TestBuiltinCatalogComplete(t *testing.T) {
	want := []string{"dtw", "knapsack", "lcs", "morphrecon", "nash", "nussinov", "seqcompare", "swaffine", "synthetic"}
	got := Names()
	if len(got) < 9 {
		t.Fatalf("catalog has %d apps, want >= 9: %v", len(got), got)
	}
	set := map[string]bool{}
	for _, n := range got {
		set[n] = true
	}
	for _, n := range want {
		if !set[n] {
			t.Errorf("catalog missing %q", n)
		}
	}
	for _, a := range All() {
		v := requiredValues(a)
		inst, _, err := a.InstanceFor(64, 64, v)
		if err != nil {
			t.Errorf("%s: InstanceFor: %v", a.Name, err)
			continue
		}
		if err := inst.Validate(); err != nil {
			t.Errorf("%s: invalid instance: %v", a.Name, err)
		}
		k, err := a.NewKernel(64, 64, v)
		if err != nil {
			t.Errorf("%s: NewKernel: %v", a.Name, err)
			continue
		}
		if k.DSize() != inst.DSize {
			t.Errorf("%s: kernel dsize %d != catalog dsize %d", a.Name, k.DSize(), inst.DSize)
		}
	}
}

// requiredValues fills just the required parameters of an app with
// small test values.
func requiredValues(a App) Values {
	v := Values{}
	for _, p := range a.Params {
		if p.Required {
			x := 4.0
			if p.Min < p.Max && x < p.Min {
				x = p.Min
			}
			v[p.Name] = x
		}
	}
	return v
}

// TestEveryAppOrderInvariant is the dependency-order invariance check
// for the whole catalog: computing a kernel's grid in row-major serial
// order, strict anti-diagonal order, tiled-parallel wavefront order,
// irregular-frontier order (cell-level and tiled in-degree scheduling
// over the kernel's declared live region) and through the engine's
// three-phase functional simulation must yield bit-identical grids.
// This is the property the executors and the multi-GPU band
// partitioning rely on.
func TestEveryAppOrderInvariant(t *testing.T) {
	sys := hw.I7_2600K()
	for _, a := range All() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			rows, cols := 23, 37
			if a.SquareOnly {
				rows, cols = 29, 29
			}
			v := requiredValues(a)
			k, err := a.NewKernel(rows, cols, v)
			if err != nil {
				t.Fatal(err)
			}
			ref := grid.NewRect(rows, cols, k.DSize())
			cpuexec.RunSerial(k, ref)

			diag := grid.NewRect(rows, cols, k.DSize())
			if err := cpuexec.RunSerialFrontier(k, diag, grid.NewDiagFrontier(rows, cols)); err != nil {
				t.Fatal(err)
			}
			if !ref.Equal(diag) {
				t.Error("anti-diagonal order diverges from row-major")
			}

			ex := cpuexec.New(4)
			defer ex.Close()
			for _, ct := range []int{1, 3, 8} {
				tiled := grid.NewRect(rows, cols, k.DSize())
				if err := ex.Run(k, tiled, ct); err != nil {
					t.Fatal(err)
				}
				if !ref.Equal(tiled) {
					t.Errorf("tiled execution (ct=%d) diverges from row-major", ct)
				}
			}

			// Irregular-frontier execution over the kernel's declared
			// live region: serial drain, then pooled cell-level and
			// tiled in-degree scheduling.
			irr := grid.NewRect(rows, cols, k.DSize())
			f := grid.NewIrregularFrontier(rows, cols, kernels.StencilOf(k), kernels.LiveOf(k, rows, cols))
			if err := cpuexec.RunSerialFrontier(k, irr, f); err != nil {
				t.Fatal(err)
			}
			if !ref.Equal(irr) {
				t.Error("serial frontier execution diverges from row-major")
			}
			for _, ct := range []int{1, 5} {
				fg := grid.NewRect(rows, cols, k.DSize())
				if err := ex.RunIrregular(context.Background(), k, fg, ct); err != nil {
					t.Fatal(err)
				}
				if !ref.Equal(fg) {
					t.Errorf("irregular execution (ct=%d) diverges from row-major", ct)
				}
			}

			// Three-phase hybrid simulation with a dual-GPU band.
			inst := plan.Instance{Rows: rows, Cols: cols}
			par := plan.Params{CPUTile: 4, Band: 6, GPUTile: 2, Halo: 2}
			_, sg, err := engine.Simulate(sys, inst, k, par, engine.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !ref.Equal(sg) {
				t.Error("hybrid simulation diverges from row-major")
			}
		})
	}
}

func TestRenderCatalog(t *testing.T) {
	out := RenderCatalog()
	for _, n := range Names() {
		if !strings.Contains(out, n) {
			t.Errorf("catalog rendering missing %q", n)
		}
	}
	if !strings.Contains(out, "param") {
		t.Error("synthetic's parameterized granularity not marked")
	}
}

func TestCalibrateTSize(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock measurement")
	}
	coarse := CalibrateTSize(kernels.NewSynthetic(200, 0))
	fine := CalibrateTSize(kernels.NewSynthetic(1, 0))
	if coarse <= 0 || fine <= 0 {
		t.Fatalf("calibration not positive: coarse=%g fine=%g", coarse, fine)
	}
	// A 200-iteration kernel must measure meaningfully coarser than the
	// unit kernel. The exact ratio is timing-dependent and shrinks when
	// instrumentation (e.g. -race) inflates the fixed per-cell overhead,
	// so only the ordering is asserted, with a comfortable margin.
	if coarse < 2*fine {
		t.Errorf("calibration ordering implausible: 200-iter=%g unit=%g", coarse, fine)
	}
}

// TestMaskedAppsDeclareLiveCells: the daemon path (InstanceFor, no
// kernel construction) must stamp the live-cell count for masked
// workloads, fork their cache key from the dense spelling, and leave
// dense apps untouched.
func TestMaskedAppsDeclareLiveCells(t *testing.T) {
	nus, _ := Lookup("nussinov")
	inst, _, err := nus.InstanceFor(64, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := 64 * 65 / 2; inst.LiveCells != want {
		t.Errorf("nussinov LiveCells = %d, want %d", inst.LiveCells, want)
	}
	if !strings.Contains(inst.CacheKey(), "|live=") {
		t.Errorf("nussinov cache key %q lacks the live-region component", inst.CacheKey())
	}

	mr, ok := Lookup("morphrecon")
	if !ok {
		t.Fatal("morphrecon not registered")
	}
	inst, rv, err := mr.InstanceFor(100, 80, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rv["threshold"] != kernels.MorphReconThreshold {
		t.Errorf("resolved threshold = %v", rv["threshold"])
	}
	if inst.LiveCells != 4000 { // (256-128)/256 of 8000 cells
		t.Errorf("morphrecon LiveCells = %d, want 4000", inst.LiveCells)
	}
	// Fully open mask: dense, no live component in the key.
	inst, _, err = mr.InstanceFor(100, 80, Values{"threshold": 0})
	if err != nil {
		t.Fatal(err)
	}
	if inst.LiveCells != 0 {
		t.Errorf("threshold 0 LiveCells = %d, want 0 (dense)", inst.LiveCells)
	}

	lcs, _ := Lookup("lcs")
	inst, _, err = lcs.InstanceFor(64, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	if inst.LiveCells != 0 {
		t.Errorf("dense app LiveCells = %d, want 0", inst.LiveCells)
	}
}
