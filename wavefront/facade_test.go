package wavefront

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestFacadeHasConsumers keeps the package from regrowing names nobody
// uses. An exported top-level name stays only when a .go file under
// ../cmd or ../examples refers to it as wavefront.<Name>, or when a kept
// declaration names it: a kept function's signature, a kept type's
// fields, or — for an alias of an internal type — that type's exported
// fields, so a kept declaration never hands out a type the caller cannot
// spell.
func TestFacadeHasConsumers(t *testing.T) {
	const module = "repro"
	// decls maps each exported facade name to the type expressions it
	// exposes; aliases maps "importpath.Name" of an aliased internal
	// type back to the facade name, and targets the other way.
	decls := map[string][]typeRef{}
	aliases := map[string]string{}
	targets := map[string][2]string{}
	for _, f := range parseNonTest(t, ".") {
		imports := importNames(f)
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.IsExported() {
					decls[d.Name.Name] = []typeRef{{d.Type, "", imports}}
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						if !s.Name.IsExported() {
							continue
						}
						decls[s.Name.Name] = []typeRef{{s.Type, "", imports}}
						if sel, ok := s.Type.(*ast.SelectorExpr); ok && s.Assign.IsValid() {
							path := imports[sel.X.(*ast.Ident).Name]
							aliases[path+"."+sel.Sel.Name] = s.Name.Name
							targets[s.Name.Name] = [2]string{path, sel.Sel.Name}
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								decls[n.Name] = nil
								if s.Type != nil {
									decls[n.Name] = []typeRef{{s.Type, "", imports}}
								}
							}
						}
					}
				}
			}
		}
	}

	// internal loads the exported fields of an aliased internal type from
	// its package source.
	parsed := map[string][]*ast.File{}
	internal := func(path, name string) []typeRef {
		dir := filepath.Join("..", strings.TrimPrefix(path, module+"/"))
		if parsed[dir] == nil {
			parsed[dir] = parseNonTest(t, dir)
		}
		var refs []typeRef
		for _, f := range parsed[dir] {
			imports := importNames(f)
			for _, d := range f.Decls {
				if d, ok := d.(*ast.GenDecl); ok {
					for _, s := range d.Specs {
						if s, ok := s.(*ast.TypeSpec); ok && s.Name.Name == name {
							refs = append(refs, exportedParts(s.Type, path, imports)...)
						}
					}
				}
			}
		}
		return refs
	}

	// Kept names start from the consumers and grow through what each
	// kept declaration names.
	used := consumerRefs(t, filepath.Join("..", "cmd"), filepath.Join("..", "examples"))
	kept := map[string]bool{}
	var work []string
	keep := func(name string) {
		if _, ok := decls[name]; ok && !kept[name] {
			kept[name] = true
			work = append(work, name)
		}
	}
	for name := range used {
		keep(name)
	}
	for len(work) > 0 {
		name := work[len(work)-1]
		work = work[:len(work)-1]
		refs := decls[name]
		if tg, ok := targets[name]; ok {
			refs = internal(tg[0], tg[1])
		}
		for _, r := range refs {
			ast.Inspect(r.expr, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok {
						keep(aliases[r.imports[x.Name]+"."+n.Sel.Name])
					}
					return false
				case *ast.Ident:
					if r.pkg == "" {
						keep(n.Name)
					} else {
						keep(aliases[r.pkg+"."+n.Name])
					}
				}
				return true
			})
		}
	}

	var unused []string
	for name := range decls {
		if !kept[name] {
			unused = append(unused, name)
		}
	}
	sort.Strings(unused)
	for _, name := range unused {
		t.Errorf("%s has no consumer: nothing under cmd/ or examples/ uses wavefront.%s and no kept declaration names it", name, name)
	}
}

// parseNonTest parses the non-test Go files of the package in dir.
func parseNonTest(t *testing.T, dir string) []*ast.File {
	pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, p := range pkgs {
		for _, f := range p.Files {
			files = append(files, f)
		}
	}
	return files
}

// typeRef is a type expression together with the package it belongs to
// ("" for this package) and that file's import names.
type typeRef struct {
	expr    ast.Expr
	pkg     string
	imports map[string]string
}

// exportedParts returns the parts of an internal type declaration a
// caller can reach: exported struct fields and interface methods, or the
// whole expression for any other type.
func exportedParts(e ast.Expr, pkg string, imports map[string]string) []typeRef {
	var list *ast.FieldList
	switch e := e.(type) {
	case *ast.StructType:
		list = e.Fields
	case *ast.InterfaceType:
		list = e.Methods
	default:
		return []typeRef{{e, pkg, imports}}
	}
	var refs []typeRef
	for _, f := range list.List {
		exported := len(f.Names) == 0
		for _, n := range f.Names {
			exported = exported || n.IsExported()
		}
		if exported {
			refs = append(refs, typeRef{f.Type, pkg, imports})
		}
	}
	return refs
}

// importNames maps each import's local name to its path.
func importNames(f *ast.File) map[string]string {
	m := map[string]string{}
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		name := path[strings.LastIndex(path, "/")+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		m[name] = path
	}
	return m
}

// consumerRefs returns every Name written as wavefront.<Name> in the .go
// files under dirs, comments included.
func consumerRefs(t *testing.T, dirs ...string) map[string]bool {
	re := regexp.MustCompile(`\bwavefront\.([A-Z]\w*)`)
	used := map[string]bool{}
	for _, dir := range dirs {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
				return err
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range re.FindAllSubmatch(src, -1) {
				used[string(m[1])] = true
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return used
}

// internalExportAllowlist names the exported functions and methods under
// ../internal that no non-test file reaches but that stay, each with its
// reason. Keys are "pkg.Func" or "pkg.Recv.Method".
var internalExportAllowlist = map[string]string{
	"telemetry.ValidateExposition": "strict exposition check that tests in three packages run against /metrics",
	"apps.CalibrateTSize":          "the tsize calibration against host-measured kernels is still to be decided on",
	"core.MeanEfficiency":          "the plan-quality reference will consume or replace it",
	"jobs.Manager.Await":           "test synchronisation on a job's end across three packages",
	"jobs.Manager.AwaitPipeline":   "test synchronisation on a pipeline's end across three packages",
	"stats.Heatmap.Complete":       "pins Figure 5's coverage in two packages",
	"telemetry.Histogram.Count":    "tests in two packages read a histogram's observation count",
	"grid.DiagFrontier.Steps":      "grid.Frontier's step count, which grid's and cpuexec's tests read through the interface",
	"grid.IrregularFrontier.Steps": "grid.Frontier's step count; grid's tests pin the irregular levels against a reference propagation",
	"kernels.DTW.Dist":             "reads the kernel's answer",
	"kernels.LCS.Length":           "reads the kernel's answer",
	"kernels.MorphRecon.Mass":      "reads the kernel's answer",
	"kernels.Nussinov.Pairs":       "reads the kernel's answer",
	"kernels.SWAffine.Score":       "reads the kernel's answer",
	"kernels.SeqCompare.Score":     "reads the kernel's answer",
}

// stdInterfaceMethods are method names a standard-library interface
// calls without a selector in this repo (fmt, encoding/json, sort,
// container/heap, net/http).
var stdInterfaceMethods = map[string]bool{
	"String": true, "Error": true, "MarshalJSON": true, "UnmarshalJSON": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"ServeHTTP": true,
}

// TestInternalExportsHaveConsumers keeps ../internal from regrowing
// exported code that only tests reach. Every package of the repo is
// type-checked from its non-test files, so a reference is resolved to
// the declaration it denotes. An exported top-level function is consumed
// when a non-test file uses it outside its own body. An exported method
// is consumed when a non-test file outside its own declaration selects
// it on its receiver type, or calls a method of that name on an
// interface its receiver type implements. Everything else must be
// deleted or listed in internalExportAllowlist, and every allowlist
// entry must still exist and still lack a consumer.
func TestInternalExportsHaveConsumers(t *testing.T) {
	const module = "repro"
	root := ".."
	imp := &repoImporter{
		fset:  token.NewFileSet(),
		dirs:  map[string]string{},
		pkgs:  map[string]*types.Package{},
		files: map[string][]*ast.File{},
		info:  &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
	}
	imp.std = importer.ForCompiler(imp.fset, "source", nil)
	err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if n := d.Name(); dir != root && (strings.HasPrefix(n, ".") || n == "testdata") {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		if _, err := build.ImportDir(dir, 0); err == nil {
			imp.dirs[path.Join(module, filepath.ToSlash(rel))] = dir
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for ipath := range imp.dirs {
		if _, err := imp.Import(ipath); err != nil {
			t.Fatal(err)
		}
	}

	// uses maps each function and method to where it is used; ifaceUses
	// holds the interface methods used.
	uses := map[*types.Func][]token.Pos{}
	ifaceUses := map[*types.Func]bool{}
	for id, obj := range imp.info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		fn = fn.Origin()
		uses[fn] = append(uses[fn], id.Pos())
		if recv := fn.Signature().Recv(); recv != nil && types.IsInterface(recv.Type()) {
			ifaceUses[fn] = true
		}
	}
	// consumed reports whether fn, declared by decl, is used outside decl.
	consumed := func(fn *types.Func, decl *ast.FuncDecl) bool {
		for _, pos := range uses[fn] {
			if pos < decl.Pos() || pos >= decl.End() {
				return true
			}
		}
		recv := fn.Signature().Recv()
		if recv == nil {
			return false
		}
		for m := range ifaceUses {
			iface := m.Signature().Recv().Type().Underlying().(*types.Interface)
			if m.Name() == fn.Name() && (types.Implements(recv.Type(), iface) ||
				types.Implements(types.NewPointer(recv.Type()), iface)) {
				return true
			}
		}
		return false
	}

	seen := map[string]bool{}
	var unused []string
	for ipath, files := range imp.files {
		if !strings.HasPrefix(ipath, module+"/internal/") {
			continue
		}
		pkg := ipath[strings.LastIndex(ipath, "/")+1:]
		for _, f := range files {
			for _, d := range f.Decls {
				decl, ok := d.(*ast.FuncDecl)
				if !ok || !decl.Name.IsExported() {
					continue
				}
				key := pkg + "." + decl.Name.Name
				if decl.Recv != nil {
					if stdInterfaceMethods[decl.Name.Name] {
						continue
					}
					key = pkg + "." + recvName(decl) + "." + decl.Name.Name
				}
				seen[key] = true
				used := consumed(imp.info.Defs[decl.Name].(*types.Func), decl)
				_, allowed := internalExportAllowlist[key]
				switch {
				case !used && !allowed:
					unused = append(unused, key)
				case used && allowed:
					t.Errorf("%s is on the allowlist but has a consumer now: take it off", key)
				}
			}
		}
	}
	sort.Strings(unused)
	for _, key := range unused {
		t.Errorf("%s has no consumer outside tests: delete it, or move it into a _test.go file", key)
	}
	for key := range internalExportAllowlist {
		if !seen[key] {
			t.Errorf("allowlist entry %s names no exported function or method", key)
		}
	}
}

// repoImporter type-checks the repo's packages from their non-test files
// into one types.Info, each package once, and imports the standard
// library through one source importer shared by all of them.
type repoImporter struct {
	fset  *token.FileSet
	dirs  map[string]string // import path to directory
	std   types.Importer
	info  *types.Info
	pkgs  map[string]*types.Package
	files map[string][]*ast.File // import path to its parsed files
}

func (r *repoImporter) Import(ipath string) (*types.Package, error) {
	if p, ok := r.pkgs[ipath]; ok {
		return p, nil
	}
	dir, ok := r.dirs[ipath]
	if !ok {
		return r.std.Import(ipath)
	}
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(r.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: r}
	p, err := conf.Check(ipath, r.fset, files, r.info)
	if err != nil {
		return nil, err
	}
	r.pkgs[ipath], r.files[ipath] = p, files
	return p, nil
}

// recvName returns the type name of a method's receiver.
func recvName(fn *ast.FuncDecl) string {
	e := fn.Recv.List[0].Type
	if s, ok := e.(*ast.StarExpr); ok {
		e = s.X
	}
	switch x := e.(type) {
	case *ast.IndexExpr:
		e = x.X
	case *ast.IndexListExpr:
		e = x.X
	}
	return e.(*ast.Ident).Name
}
