package parbem

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/fstest"
)

// censusAllow lists the exported declarations of the main module that no
// production file names, each with the reason it stays. A key is the
// declaring package's directory ("parbem" for the facade), a dot and the
// name; a method is Recv.Name. A row whose name production code now uses,
// or whose declaration is gone, fails the census like an unlisted name
// does.
var censusAllow = map[string]string{
	// The facade is the library's public API; ROADMAP items 6 and 21
	// decide its names, not their use inside the module.
	"parbem.Axis":               "facade API: the type of X, Y and Z",
	"parbem.X":                  "facade API: an axis constant",
	"parbem.Y":                  "facade API: an axis constant",
	"parbem.Z":                  "facade API: an axis constant",
	"parbem.Wire":               "facade API: builds a wire box for hand-made structures",
	"parbem.Eps0":               "facade API: the vacuum permittivity the results are scaled by",
	"parbem.ErrSelfCapacitance": "facade API: the sentinel callers match with errors.Is",
	"parbem.BuilderOptions":     "facade API: basis generation's (empty) option set, pinned by TestOptionSurface",
	"parbem.EngineStats":        "facade API: the name of the engine's statistics type",
	"parbem.ExtractPFFT":        "facade API: the precorrected-FFT baseline by name",
	"parbem.KernelConfig":       "facade API: the type of Options.Kernel",
	"parbem.NewEngine":          "facade API: the batch engine's constructor",

	// bench/ is a module of its own, so its calls are not production
	// names here; B2 (ROADMAP item 3(c)) frees these.
	"internal/assembly.NewIntegrator":   "bench/'s template workload; the tests of assembly, par, mpi, op and the facade",
	"internal/fmm.Topology.Leaves":      "bench/'s fmm.leaves counter",
	"internal/kernel.RectGalerkinBatch": "bench/'s kernel.pair_ns probe; kernel's tests",
	"internal/op.NewFromDense":          "bench/'s template workload; op's direct-solve tests",
	"internal/op.Pipeline.ExtractRHS":   "bench/'s template workload; the tests of op and the facade",
	"internal/par.Fill":                 "bench/'s traced par.Fill span; par's tests",

	// References and helpers that the tests of several packages share.
	"internal/assembly.Integrator.TemplatePair": "the per-pair reference of assembly's and par's tests and the facade's ablation benchmark",
	"internal/assembly.Interned.Pair":           "the one-entry route of assembly's and par's tests",
	"internal/basis.Set.CountKinds":             "basis's and assembly's tests",
	"internal/geom.Rect.Point":                  "geom's, kernel's and assembly's tests",
	"internal/geom.Rect.DistToPoint":            "geom's, kernel's and assembly's tests",
	"internal/kernel.SelfGalerkin":              "kernel's and assembly's tests",
	"internal/linalg.Dense.MulVec":              "the dense reference of linalg's, op's, fmm's and pfft's tests",
	"internal/linalg.Dense.Transpose":           "linalg's and op's tests",
	"internal/linalg.MaxAbsDiff":                "the tests of assembly, par, mpi, solver, op and linalg",
	"internal/linalg.Mul":                       "linalg's and op's tests",
	"internal/op.Spec.AssembleDense":            "op's and pcbem's tests",
	"internal/plan.Plan.Holds":                  "internal/batch's release tests",
	"internal/quad.Integrate1D":                 "the reference of quad's, kernel's and basis's tests",
	"internal/quad.Integrate4D":                 "the reference of quad's and kernel's tests",
	"internal/serve.Client.ExtractAsync":        "serve's and cmd/capxd's tests of the served async path",
	"internal/serve.Client.Job":                 "serve's and cmd/capxd's tests poll their async jobs",
}

// TestExportCensus fails on an exported top-level declaration of the main
// module's non-test code (bench/ is a module of its own) that no non-test
// file names: such code runs only under tests, so it is deleted, moved
// into the tests that use it, or listed in censusAllow with its reason.
func TestExportCensus(t *testing.T) {
	problems, err := exportCensus(os.DirFS("."), "parbem", censusAllow)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}

	t.Run("synthesized", func(t *testing.T) {
		fsys := fstest.MapFS{
			"go.mod":      {Data: []byte("module m\n")},
			"a/a.go":      {Data: []byte("package a\n\nfunc Used() {}\n\nfunc Unused() {}\n\ntype T struct{}\n\nfunc (T) Orphan() {}\n")},
			"b/b.go":      {Data: []byte("package b\n\nimport \"m/a\"\n\nvar _ = a.T{}\n\nfunc init() { a.Used() }\n")},
			"a/a_test.go": {Data: []byte("package a\n\nfunc init() { Unused(); T{}.Orphan() }\n")},
		}
		got, err := exportCensus(fsys, "m", map[string]string{
			"a.T.Orphan": "kept for the synthesized case",
			"a.Used":     "a stale row: b names it",
			"a.Gone":     "a stale row: nothing declares it",
		})
		if err != nil {
			t.Fatal(err)
		}
		want := []string{
			"a.Gone: allow-listed but declared nowhere",
			"a.Unused: exported, named by no production file",
			"a.Used: allow-listed but production code names it",
		}
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("census of the synthesized module:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	})
}

// censusDecl is one exported top-level declaration.
type censusDecl struct{ dir, name, recv string }

func (d censusDecl) key(module string) string {
	k := d.dir + "."
	if d.dir == "." {
		k = module + "."
	}
	if d.recv != "" {
		k += d.recv + "."
	}
	return k + d.name
}

// exportCensus walks the non-test Go files of the module rooted at fsys,
// skipping testdata and nested modules, and reports every exported
// top-level declaration that no non-test file names, and every allow row
// that is stale. A package-level name counts as named by a bare use in
// its own package or by a selector on an import of it; a method (whose
// receiver's type a syntactic pass cannot see) by any selector or
// interface method of its name.
func exportCensus(fsys fs.FS, module string, allow map[string]string) ([]string, error) {
	fset := token.NewFileSet()
	files := map[string][]*ast.File{} // by directory
	err := fs.WalkDir(fsys, ".", func(p string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if p != "." && (e.Name() == "testdata" || strings.HasPrefix(e.Name(), ".")) {
				return fs.SkipDir
			}
			if _, err := fs.Stat(fsys, path.Join(p, "go.mod")); p != "." && err == nil {
				return fs.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		src, err := fs.ReadFile(fsys, p)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, p, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files[path.Dir(p)] = append(files[path.Dir(p)], f)
		return nil
	})
	if err != nil {
		return nil, err
	}

	var decls []censusDecl
	declIdents := map[*ast.Ident]bool{}
	for dir, pkg := range files {
		for _, f := range pkg {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Name.Name == "main" || d.Name.Name == "init" {
						continue
					}
					c := censusDecl{dir: dir, name: d.Name.Name}
					if d.Recv != nil {
						c.recv = recvName(d.Recv.List[0].Type)
					}
					declIdents[d.Name] = true
					if d.Name.IsExported() {
						decls = append(decls, c)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						var names []*ast.Ident
						switch s := s.(type) {
						case *ast.TypeSpec:
							names = []*ast.Ident{s.Name}
						case *ast.ValueSpec:
							names = s.Names
						}
						for _, n := range names {
							declIdents[n] = true
							if n.IsExported() {
								decls = append(decls, censusDecl{dir: dir, name: n.Name})
							}
						}
					}
				}
			}
		}
	}

	// Package-level uses: "dir.Name"; method uses: the bare name.
	named := map[string]bool{}
	methods := map[string]bool{}
	for dir, pkg := range files {
		for _, f := range pkg {
			imports := map[string]string{} // local name -> directory
			for _, im := range f.Imports {
				p, _ := strconv.Unquote(im.Path.Value)
				var d string
				switch {
				case p == module:
					d = "."
				case strings.HasPrefix(p, module+"/"):
					d = strings.TrimPrefix(p, module+"/")
				default:
					continue
				}
				local := path.Base(p)
				if pkgs := files[d]; len(pkgs) > 0 {
					local = pkgs[0].Name.Name
				}
				if im.Name != nil {
					local = im.Name.Name
				}
				imports[local] = d
			}
			// Selected names, struct fields and literal keys are not uses of
			// a package-level name.
			skip := map[*ast.Ident]bool{}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.StructType:
					for _, fl := range n.Fields.List {
						for _, name := range fl.Names {
							skip[name] = true
						}
					}
				case *ast.CompositeLit:
					for _, e := range n.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							if k, ok := kv.Key.(*ast.Ident); ok {
								skip[k] = true
							}
						}
					}
				case *ast.SelectorExpr:
					skip[n.Sel] = true
					methods[n.Sel.Name] = true
					if x, ok := n.X.(*ast.Ident); ok {
						if d, ok := imports[x.Name]; ok {
							named[d+"."+n.Sel.Name] = true
						}
					}
				case *ast.InterfaceType:
					for _, m := range n.Methods.List {
						for _, name := range m.Names {
							methods[name.Name] = true
						}
					}
				case *ast.Ident:
					if !skip[n] && !declIdents[n] {
						named[dir+"."+n.Name] = true
					}
				}
				return true
			})
		}
	}

	var problems []string
	declared := map[string]bool{}
	for _, d := range decls {
		k := d.key(module)
		declared[k] = true
		used := named[d.dir+"."+d.name]
		if d.recv != "" {
			used = methods[d.name]
		}
		_, listed := allow[k]
		switch {
		case used && listed:
			problems = append(problems, k+": allow-listed but production code names it")
		case !used && !listed:
			problems = append(problems, k+": exported, named by no production file")
		}
	}
	for k := range allow {
		if !declared[k] {
			problems = append(problems, k+": allow-listed but declared nowhere")
		}
	}
	sort.Strings(problems)
	return problems, nil
}

// recvName is the type name of a method receiver: T for T, *T, T[P] and
// *T[P].
func recvName(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.ParenExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}
