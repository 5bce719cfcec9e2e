package parbem

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/fstest"
)

// This file keeps the architecture in tier-1: one pass parses the source
// tree and type-checks the main module's non-test packages, and two tests
// read it. TestExportCensus finds exported names that only tests reach;
// TestArchitectureGuards finds the forms the design has removed (a second
// factorization, a fan-out outside internal/sched, ...). Both resolve
// names to objects, so an import alias hides nothing, and neither reads
// comments.

// censusAllow lists the exported declarations of the main module that no
// production file uses, each with the reason it stays. A key is the
// declaring package's directory ("parbem" for the facade), a dot and the
// name; a method is Recv.Name. A row whose name production code now uses,
// or whose declaration is gone, fails the census like an unlisted name
// does.
var censusAllow = map[string]string{
	// The facade is the library's public API; ROADMAP items 6 and 21
	// decide its names, not their use inside the module.
	"parbem.Axis":                   "facade API: the type of X, Y and Z",
	"parbem.X":                      "facade API: an axis constant",
	"parbem.Y":                      "facade API: an axis constant",
	"parbem.Z":                      "facade API: an axis constant",
	"parbem.Wire":                   "facade API: builds a wire box for hand-made structures",
	"parbem.Eps0":                   "facade API: the vacuum permittivity the results are scaled by",
	"parbem.ErrSelfCapacitance":     "facade API: the sentinel callers match with errors.Is",
	"parbem.BuilderOptions":         "facade API: basis generation's (empty) option set, pinned by TestOptionSurface",
	"parbem.EngineStats":            "facade API: the name of the engine's statistics type",
	"parbem.ExtractPFFT":            "facade API: the precorrected-FFT baseline by name",
	"parbem.KernelConfig":           "facade API: the type of Options.Kernel",
	"parbem.NewEngine":              "facade API: the batch engine's constructor",
	"internal/geom.Axis.String":     "facade API: a method of parbem.Axis",
	"internal/batch.Engine.Extract": "facade API: a method of parbem.Engine",
	"internal/geom.Box.Center":      "facade API: a method of parbem.Box",
	"internal/geom.Conductor.Faces": "facade API: a method of parbem.Conductor",
	"internal/linalg.Dense.Add":     "facade API: a method of parbem.Matrix",
	"internal/linalg.Dense.Clone":   "facade API: a method of parbem.Matrix",

	// bench/ is a module of its own, so its calls are not production
	// names here; B2 (ROADMAP item 3(c)) frees these.
	"internal/artifact.Store.Bytes":     "bench/'s artifact.bytes counter; artifact's tests",
	"internal/assembly.NewIntegrator":   "bench/'s template workload; the tests of assembly, par, mpi, op and the facade",
	"internal/fmm.Operator.NearEntries": "bench/'s fmm.near_entries counter",
	"internal/fmm.Topology.Leaves":      "bench/'s fmm.leaves counter",
	"internal/kernel.RectGalerkinBatch": "bench/'s kernel.pair_ns probe; kernel's tests",
	"internal/op.NewFromDense":          "bench/'s template workload; op's direct-solve tests",
	"internal/op.Pipeline.ExtractRHS":   "bench/'s template workload; the tests of op and the facade",
	"internal/par.Fill":                 "bench/'s traced par.Fill span; par's tests",
	"internal/pfft.Operator.GridNodes":  "bench/'s pfft.grid_nodes counter",

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

// TestExportCensus fails on an exported declaration of the main module's
// non-test code (bench/ is a module of its own) that no non-test file
// uses: such code runs only under tests, so it is deleted, moved into the
// tests that use it, or listed in censusAllow with its reason.
func TestExportCensus(t *testing.T) {
	tree, err := repoTree()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range exportCensus(tree, censusAllow) {
		t.Error(p)
	}

	t.Run("synthesized", func(t *testing.T) {
		tree, err := loadTree(fstest.MapFS{
			"go.mod": {Data: []byte("module m\n")},
			"a/a.go": {Data: []byte(`package a

func Used() {}

func Unused() {}

type T struct{}

func (T) Orphan() {}

func (T) Name() string { return "" }

type U struct{}

func (U) Name() string { return "" }

type E struct{}

func (E) Error() string { return "" }
`)},
			"b/b.go": {Data: []byte(`package b

import "m/a"

var _ = a.T{}.Name()

var _ error = a.E{}

func init() { a.Used() }
`)},
			"a/a_test.go": {Data: []byte("package a\n\nfunc init() { Unused(); T{}.Orphan(); U{}.Name() }\n")},
		})
		if err != nil {
			t.Fatal(err)
		}
		got := exportCensus(tree, map[string]string{
			"a.T.Orphan": "kept for the synthesized case",
			"a.Used":     "a stale row: b names it",
			"a.Gone":     "a stale row: nothing declares it",
		})
		// U.Name shares its name with T.Name, which b calls; E.Error is
		// used through error.
		want := []string{
			"a.Gone: allow-listed but declared nowhere",
			"a.U.Name: exported, used by no production file",
			"a.Unused: exported, used by no production file",
			"a.Used: allow-listed but production code uses it",
		}
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("census of the synthesized module:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	})
}

// exportCensus reports every exported package-level object and exported
// method of the tree's checked packages that no checked file uses, and
// every allow row that is stale. A use is an identifier or selector that
// resolves to the object (a generic method's instances resolve to it). A
// method is also used when its type implements an interface that
// production code uses, named or literal, error included: that interface
// is the type of an expression, of a declared or used object, or of a
// used function's parameter or result. A String method is used when a
// value of its type is passed to an interface parameter, as fmt prints it.
func exportCensus(t *srcTree, allow map[string]string) []string {
	used := map[types.Object]bool{}
	mark := func(obj types.Object) {
		if f, ok := obj.(*types.Func); ok {
			obj = f.Origin()
		}
		used[obj] = true
	}
	ifaces := map[string]*types.Interface{}
	var addIface func(types.Type)
	addIface = func(typ types.Type) {
		if sig, ok := typ.(*types.Signature); ok {
			for _, tup := range []*types.Tuple{sig.Params(), sig.Results()} {
				for i := 0; i < tup.Len(); i++ {
					addIface(tup.At(i).Type())
				}
			}
		} else if it, ok := typ.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces[types.TypeString(typ, nil)] = it
		}
	}
	for _, info := range t.infos {
		for _, obj := range info.Uses {
			mark(obj)
			addIface(obj.Type())
		}
		for _, sel := range info.Selections {
			mark(sel.Obj())
		}
		for _, obj := range info.Defs {
			if obj != nil {
				addIface(obj.Type())
			}
		}
		for e, tv := range info.Types {
			addIface(tv.Type)
			call, ok := e.(*ast.CallExpr)
			if !ok {
				continue
			}
			sig, ok := info.Types[call.Fun].Type.(*types.Signature)
			if !ok {
				continue
			}
			for i, arg := range call.Args {
				param := sig.Params().At(min(i, sig.Params().Len()-1)).Type()
				if sig.Variadic() && i >= sig.Params().Len()-1 && !call.Ellipsis.IsValid() {
					param = param.(*types.Slice).Elem()
				}
				if types.IsInterface(param) {
					if m, _, _ := types.LookupFieldOrMethod(info.Types[arg].Type, true, nil, "String"); m != nil {
						mark(m)
					}
				}
			}
		}
	}

	declared := map[string]types.Object{}
	for dir, pkg := range t.pkgs {
		prefix := dir + "."
		if dir == "." {
			prefix = t.module + "."
		}
		for _, name := range pkg.Scope().Names() {
			obj := pkg.Scope().Lookup(name)
			if obj.Exported() {
				declared[prefix+name] = obj
			}
			named, ok := obj.Type().(*types.Named)
			if _, isType := obj.(*types.TypeName); !isType || !ok || named.Obj() != obj {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() {
					declared[prefix+name+"."+m.Name()] = m
				}
			}
			if named.TypeParams().Len() > 0 {
				continue // Implements is unspecified on a generic type
			}
			for _, it := range ifaces {
				recv := types.Type(named)
				if !types.Implements(recv, it) {
					if recv = types.NewPointer(named); !types.Implements(recv, it) {
						continue
					}
				}
				for i := 0; i < it.NumMethods(); i++ {
					m, _, _ := types.LookupFieldOrMethod(recv, false, it.Method(i).Pkg(), it.Method(i).Name())
					mark(m)
				}
			}
		}
	}

	var problems []string
	for k, obj := range declared {
		_, listed := allow[k]
		switch {
		case used[obj] && listed:
			problems = append(problems, k+": allow-listed but production code uses it")
		case !used[obj] && !listed:
			problems = append(problems, k+": exported, used by no production file")
		}
	}
	for k := range allow {
		if declared[k] == nil {
			problems = append(problems, k+": allow-listed but declared nowhere")
		}
	}
	sort.Strings(problems)
	return problems
}

// guard is one architecture rule: forms that the code it reads may not
// contain. A comment trips no guard, and a string literal only a form
// that reads strings.
type guard struct {
	name   string
	scope  []string // directories read, with their subdirectories; "." is the root package alone, and none is the whole tree
	exempt []string // directories, with their subdirectories, not read
	// tests also reads _test.go files and nested modules (bench/). Those
	// are not type-checked: objects resolve through the file's imports,
	// and form sees a nil info.
	tests   bool
	objects []string       // forbidden package-level objects, import path and name
	idents  *regexp.Regexp // forbidden identifiers, whatever they denote
	form    func(f *srcFile, n ast.Node) string
}

// reads reports whether the guard reads files of dir.
func (g guard) reads(dir string) bool {
	in := func(dirs []string) bool {
		return slices.ContainsFunc(dirs, func(d string) bool {
			return dir == d || d != "." && strings.HasPrefix(dir, d+"/")
		})
	}
	return (len(g.scope) == 0 || in(g.scope)) && !in(g.exempt)
}

// guards is the architecture, one row per rule.
var guards = []guard{{
	// Library code runs parallel work on internal/sched: only sched's
	// workers and serve's runners start goroutines, and mpi's ranks are a
	// sched.Local map.
	name:    "fan-out",
	scope:   []string{"internal"},
	exempt:  []string{"internal/sched", "internal/serve"},
	objects: []string{"sync.WaitGroup"},
	form: func(_ *srcFile, n ast.Node) string {
		if _, ok := n.(*ast.GoStmt); ok {
			return "a go statement: use sched.Local(d).Map or a sched.Executor"
		}
		return ""
	},
}, {
	// internal/plan is the one place a panel operator is built and its
	// solve driven; the measuring harness cmd/benchfig8 builds its own to
	// time it.
	name:    "panel-driver",
	exempt:  []string{"internal/plan", "internal/op", "internal/fmm", "internal/pfft", "cmd/benchfig8"},
	objects: []string{"parbem/internal/fmm.NewOperator", "parbem/internal/fmm.NewOperatorWith", "parbem/internal/pfft.NewOperator", "parbem/internal/pfft.NewOperatorReuse"},
	form: func(_ *srcFile, n ast.Node) string {
		if s, ok := n.(*ast.SelectorExpr); ok && (s.Sel.Name == "AssembleDense" || s.Sel.Name == "AssembleDenseReuse") {
			return "selects " + s.Sel.Name + ": extract through a plan (parbem.ExtractPipeline, plan.New)"
		}
		return ""
	},
}, {
	// Every exact panel-pair value comes from the symmetry-class table,
	// assembly.InternPanels.
	name:    "panel-kernel",
	scope:   []string{"internal/op", "internal/fmm", "internal/pfft", "internal/plan"},
	objects: []string{"parbem/internal/kernel.RectGalerkin", "parbem/internal/kernel.RectGalerkinBatch"},
}, {
	// A geometry variant's fmm or pfft near field is built as a fresh one
	// is, from the class table: no entry is copied from the previous
	// operator.
	name:   "variant",
	scope:  []string{"internal/fmm", "internal/pfft"},
	tests:  true,
	idents: regexp.MustCompile(`nearLookup|prevRowFind`),
	form: func(_ *srcFile, n ast.Node) string {
		if s, ok := n.(*ast.SelectorExpr); ok && (s.Sel.Name == "nearVal" || s.Sel.Name == "nearExact") && strings.Contains(strings.ToLower(lastName(s.X)), "prev") {
			return "reads " + s.Sel.Name + " of a previous operator: build it from the class table (Interned.PairInto)"
		}
		return ""
	},
}, {
	// Every symmetric system matrix is a packed lower triangle,
	// linalg.Sym: par.Fill and op.NewFromDense stay only for bench/'s
	// traced recomposition.
	name:    "full-matrix wrapper",
	objects: []string{"parbem/internal/par.Fill", "parbem/internal/op.NewFromDense", "parbem/internal/linalg.DenseOp"},
	idents:  regexp.MustCompile(`ParMulVec`),
	form: func(f *srcFile, n ast.Node) string {
		switch n := n.(type) {
		case *ast.TypeSpec:
			if n.Name.Name == "DenseOp" {
				return "declares DenseOp"
			}
		case *ast.FuncDecl:
			if (n.Name.Name == "FillUpper" || n.Name.Name == "AssembleDense" || n.Name.Name == "AssembleDenseReuse") && mentions(f.info.Defs[n.Name].Type(), "parbem/internal/linalg.Dense") {
				return n.Name.Name + " takes or returns a *linalg.Dense: fill the packed lower triangle (linalg.Sym)"
			}
		case *ast.Ident:
			if obj, ok := f.info.Defs[n].(*types.Var); ok && n.Name == "Dense" && mentions(obj.Type(), "parbem/internal/linalg.Dense") {
				return "holds a full N×N matrix in Dense: hold the packed lower triangle (linalg.Sym)"
			}
		}
		return ""
	},
}, {
	// Every dense symmetric factorization is linalg.FactorSym's packed
	// LDLᵀ; there is no second one, not even in tests or bench/.
	name:    "one-factorization",
	tests:   true,
	objects: []string{"parbem/internal/linalg.Cholesky"},
	idents:  regexp.MustCompile(`NewCholesky`),
	form: func(_ *srcFile, n ast.Node) string {
		if s, ok := n.(*ast.TypeSpec); ok && s.Name.Name == "Cholesky" {
			return "declares Cholesky: factor with linalg.FactorSym"
		}
		return ""
	},
}, {
	// Every Krylov solve is near-field block-Jacobi preconditioned; there
	// is no preconditioner to select.
	name:   "one-preconditioner",
	idents: regexp.MustCompile(`^(PrecondKind|PrecondNone|PrecondJacobi|NewJacobi)$`),
}, {
	// op.Interrupted is the one stop report from the solve to the wire.
	name:   "one-outcome",
	exempt: []string{"internal/op"},
	tests:  true,
	form: func(_ *srcFile, n ast.Node) string {
		if s, ok := n.(*ast.TypeSpec); ok && s.Name.Name == "Interrupted" {
			if _, ok := s.Type.(*ast.StructType); ok {
				return "declares a second Interrupted: return op.Interrupted"
			}
		}
		return ""
	},
}, {
	// A replica reads stage artifacts from its own disk store only: no
	// code serves or fetches GET /artifacts/{key}.
	name:  "peer-protocol",
	scope: []string{"internal/serve", "cmd"},
	form: func(_ *srcFile, n ast.Node) string {
		if l, ok := n.(*ast.BasicLit); ok && l.Kind == token.STRING {
			if s, _ := strconv.Unquote(l.Value); strings.Contains(s, "/artifacts/") {
				return "names /artifacts/: a replica reads its own artifact.Store"
			}
		}
		return ""
	},
}, {
	// The float32 mirror never showed an end-to-end win: only internal/op,
	// fmm, pfft and fft name it, for bench/'s probes; no command flag,
	// wire value or exported name selects it.
	name:   "mixed-precision surface",
	exempt: []string{"internal/op", "internal/fmm", "internal/pfft", "internal/fft"},
	idents: regexp.MustCompile(`^(PrecisionMixed|EnableMixed|ParsePrecision)$`),
	form: func(f *srcFile, n ast.Node) string {
		if c, ok := n.(*ast.CallExpr); ok && len(c.Args) > 0 && calleePkg(f.info, c.Fun) == "flag" {
			if v := f.info.Types[c.Args[0]].Value; v != nil && v.Kind() == constant.String && constant.StringVal(v) == "precision" {
				return "defines a -precision flag: every solve a user can ask for runs fp64"
			}
		}
		return ""
	},
}, {
	// The permittivity is kernel.Eps0 and the simulated network has no
	// cost model: no float64 named Eps or eps, and no Latency,
	// InvBandwidth, GridSpacing or LeafSize.
	name:  "constant-physics",
	scope: []string{"internal", "cmd", "."},
	form: func(f *srcFile, n ast.Node) string {
		id, ok := n.(*ast.Ident)
		if !ok || f.info.Defs[id] == nil {
			return ""
		}
		switch id.Name {
		case "Eps", "eps":
			if types.Identical(f.info.Defs[id].Type(), types.Typ[types.Float64]) {
				return "declares a float64 " + id.Name + ": scale by kernel.FourPiEps0"
			}
		case "Latency", "InvBandwidth", "GridSpacing", "LeafSize":
			return "declares " + id.Name + ": run Distributed on mpi.NewNetwork(Workers), keep fmm's leafSize and pfft's automatic pitch"
		}
		return ""
	},
}}

// lastName is the rightmost name of x: prev for prev, o.prev, prev[i] or
// (*prev).
func lastName(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.Ident:
			return e.Name
		case *ast.SelectorExpr:
			return e.Sel.Name
		case *ast.ParenExpr:
			x = e.X
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.CallExpr:
			x = e.Fun
		default:
			return ""
		}
	}
}

// mentions reports whether typ's spelling names the object pathName.
func mentions(typ types.Type, pathName string) bool {
	return regexp.MustCompile(regexp.QuoteMeta(pathName) + `\b`).MatchString(types.TypeString(typ, nil))
}

// calleePkg is the import path of the package declaring the function or
// method fun denotes, or "".
func calleePkg(info *types.Info, fun ast.Expr) string {
	if s, ok := fun.(*ast.SelectorExpr); ok {
		fun = s.Sel
	}
	if id, ok := fun.(*ast.Ident); ok {
		if obj, ok := info.Uses[id].(*types.Func); ok && obj.Pkg() != nil {
			return obj.Pkg().Path()
		}
	}
	return ""
}

// TestArchitectureGuards fails on each form a guard row forbids in the
// files the row reads. The subtests feed every row a synthesized module
// that commits each forbidden form, as written and through an aliased or
// dot import, and one that names them all only in comments and strings.
func TestArchitectureGuards(t *testing.T) {
	tree, err := repoTree()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range checkGuards(tree, guards) {
		t.Error(p)
	}

	for _, c := range guardCases {
		t.Run(c.row+"/"+c.name, func(t *testing.T) {
			fsys := fstest.MapFS{}
			for k, v := range guardStubs {
				fsys[k] = &fstest.MapFile{Data: []byte(v)}
			}
			for k, v := range c.files {
				fsys[k] = &fstest.MapFile{Data: []byte(v)}
			}
			tree, err := loadTree(fsys)
			if err != nil {
				t.Fatal(err)
			}
			i := slices.IndexFunc(guards, func(g guard) bool { return g.name == c.row })
			if i < 0 && c.row != "all" {
				t.Fatalf("no guard row %q", c.row)
			}
			rows := guards
			if i >= 0 {
				rows = guards[i : i+1]
			}
			if got := checkGuards(tree, rows); len(got) != c.trips {
				t.Errorf("%d trips, want %d:\n%s", len(got), c.trips, strings.Join(got, "\n"))
			}
		})
	}
}

// checkGuards reports every forbidden form in the files each row reads.
func checkGuards(t *srcTree, rows []guard) []string {
	var problems []string
	for _, g := range rows {
		forbidden := map[string]bool{}
		for _, o := range g.objects {
			forbidden[o] = true
		}
		for _, f := range t.files {
			if f.test && !g.tests || !g.reads(f.dir) {
				continue
			}
			report := func(n ast.Node, what string) {
				problems = append(problems, fmt.Sprintf("%s guard: %s: %s", g.name, t.fset.Position(n.Pos()), what))
			}
			imports := map[string]string{} // local name -> import path, for files with no info
			for _, im := range f.ast.Imports {
				p, _ := strconv.Unquote(im.Path.Value)
				name := path.Base(p)
				if im.Name != nil {
					name = im.Name.Name
				} else if pkg := t.pkgs[t.dirOf(p)]; pkg != nil {
					name = pkg.Name()
				}
				imports[name] = p
			}
			ast.Inspect(f.ast, func(n ast.Node) bool {
				switch n := n.(type) {
				case nil:
					return false
				case *ast.Ident:
					if g.idents != nil && g.idents.MatchString(n.Name) {
						report(n, "names "+n.Name)
					}
					if f.info == nil {
						break
					}
					if obj := f.info.Uses[n]; obj != nil && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
						if k := obj.Pkg().Path() + "." + obj.Name(); forbidden[k] {
							report(n, "uses "+k)
						}
					}
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok && f.info == nil {
						if k := imports[x.Name] + "." + n.Sel.Name; forbidden[k] {
							report(n, "uses "+k)
						}
					}
				}
				if g.form != nil {
					if what := g.form(f, n); what != "" {
						report(n, what)
					}
				}
				return true
			})
		}
	}
	sort.Strings(problems)
	return problems
}

// srcFile is one parsed Go file of a source tree.
type srcFile struct {
	dir  string // slash-separated from the tree's root; "." is the root package
	test bool   // a _test.go file or a file of a nested module (bench/)
	ast  *ast.File
	info *types.Info // its package's; nil when test
}

// srcTree is a module's source tree with every Go file parsed once and
// the main module's non-test packages type-checked from source.
type srcTree struct {
	module string
	fset   *token.FileSet
	files  []*srcFile
	prod   map[string][]*srcFile     // the main module's non-test files, by directory
	pkgs   map[string]*types.Package // the checked packages, by directory
	infos  map[string]*types.Info    // their uses, definitions and types, by directory
}

// stdImporter reads the standard library's export data; one serves every
// tree a test run loads.
var stdImporter = importer.Default()

// repoTree is this repository, loaded once per test run.
var repoTree = sync.OnceValues(func() (*srcTree, error) { return loadTree(os.DirFS(".")) })

// loadTree parses every Go file under fsys, skipping testdata and hidden
// directories, and type-checks the main module's non-test packages.
func loadTree(fsys fs.FS) (*srcTree, error) {
	mod, err := fs.ReadFile(fsys, "go.mod")
	if err != nil {
		return nil, err
	}
	t := &srcTree{fset: token.NewFileSet(), prod: map[string][]*srcFile{}, pkgs: map[string]*types.Package{}, infos: map[string]*types.Info{}}
	for _, line := range strings.Split(string(mod), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			t.module = f[1]
		}
	}
	var nested []string // the roots of modules inside the tree
	err = fs.WalkDir(fsys, ".", func(p string, e fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case p == ".":
			return nil
		case e.IsDir() && (e.Name() == "testdata" || strings.HasPrefix(e.Name(), ".")):
			return fs.SkipDir
		case e.IsDir():
			if _, err := fs.Stat(fsys, path.Join(p, "go.mod")); err == nil {
				nested = append(nested, p+"/")
			}
			return nil
		case !strings.HasSuffix(p, ".go"):
			return nil
		}
		src, err := fs.ReadFile(fsys, p)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(t.fset, p, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		sf := &srcFile{dir: path.Dir(p), ast: f, test: strings.HasSuffix(p, "_test.go") ||
			slices.ContainsFunc(nested, func(n string) bool { return strings.HasPrefix(p, n) })}
		t.files = append(t.files, sf)
		if !sf.test {
			t.prod[sf.dir] = append(t.prod[sf.dir], sf)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for dir := range t.prod {
		p := t.module
		if dir != "." {
			p += "/" + dir
		}
		if _, err := t.Import(p); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// dirOf is the directory of the main module's package p, or "" for a
// package outside it.
func (t *srcTree) dirOf(p string) string {
	if p == t.module {
		return "."
	}
	if dir, ok := strings.CutPrefix(p, t.module+"/"); ok {
		return dir
	}
	return ""
}

// Import type-checks a package of the main module from source, once, and
// reads any other from the standard library's export data.
func (t *srcTree) Import(p string) (*types.Package, error) {
	dir := t.dirOf(p)
	if dir == "" {
		return stdImporter.Import(p)
	}
	if pkg := t.pkgs[dir]; pkg != nil {
		return pkg, nil
	}
	var files []*ast.File
	for _, f := range t.prod[dir] {
		files = append(files, f.ast)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	pkg, err := (&types.Config{Importer: t}).Check(p, t.fset, files, info)
	if err != nil {
		return nil, err
	}
	for _, f := range t.prod[dir] {
		f.info = info
	}
	t.pkgs[dir], t.infos[dir] = pkg, info
	return pkg, nil
}

// guardStubs is the synthesized module every guard case adds its files to:
// the names the rows forbid, declared where the design keeps them.
var guardStubs = map[string]string{
	"go.mod":                    "module parbem\n",
	"internal/fmm/fmm.go":       "package fmm\n\nfunc NewOperator() {}\n\nfunc NewOperatorWith() {}\n",
	"internal/pfft/pfft.go":     "package pfft\n\nfunc NewOperator() {}\n\nfunc NewOperatorReuse() {}\n",
	"internal/kernel/kernel.go": "package kernel\n\nfunc RectGalerkin() {}\n\nfunc RectGalerkinBatch() {}\n",
	"internal/linalg/linalg.go": "package linalg\n\ntype Dense struct{}\n",
	"internal/par/par.go":       "package par\n\nfunc Fill() {}\n",
	"internal/op/op.go": `package op

import "parbem/internal/linalg"

func NewFromDense(*linalg.Dense) {}

type Spec struct{}

func (Spec) AssembleDense() {}

type Interrupted struct{ Stage string }
`,
}

// cleanSource names every forbidden form in comments and strings only.
const cleanSource = `
// go f(); var wg sync.WaitGroup; fmm.NewOperator(); pfft.NewOperatorReuse(); s.AssembleDense()
// kernel.RectGalerkin(); prev.nearVal; nearLookup; par.Fill(); op.NewFromDense(); type DenseOp
// ParMulVec; NewCholesky; linalg.Cholesky; type Cholesky struct; PrecondKind; NewJacobi
// type Interrupted struct; GET /artifacts/{key}; PrecisionMixed; flag.String("precision")
// Eps float64; Latency time.Duration; LeafSize int
var names = "go f() sync.WaitGroup fmm.NewOperator( kernel.RectGalerkin( prev.nearVal nearLookup " +
	"par.Fill( ParMulVec NewCholesky type Cholesky PrecondKind NewJacobi type Interrupted struct " +
	"PrecisionMixed flag.String(\"precision\" Eps float64 LeafSize int"
`

// guardCases feed the guard rows synthesized modules: each forbidden form
// as written and, where a package names it, through an aliased or dot
// import; the exempt directories; and the clean source. trips is the
// number of reports the row (every row, for "all") must make.
var guardCases = []struct {
	row, name string
	files     map[string]string
	trips     int
}{
	{"all", "stubs", nil, 0},
	{"all", "comments and strings", map[string]string{
		"internal/plan/clean.go":     "package plan\n" + cleanSource,
		"internal/fmm/clean_test.go": "package fmm\n" + cleanSource,
		"internal/serve/clean.go":    "package serve\n" + cleanSource,
		"cmd/x/main.go":              "package main\n" + cleanSource + "\nfunc main() {}\n",
		"parbem.go":                  "package parbem\n" + cleanSource,
		"bench/go.mod":               "module parbem/bench\n",
		"bench/clean.go":             "package main\n" + cleanSource,
	}, 0},

	{"fan-out", "written", map[string]string{"internal/x/x.go": `package x

import "sync"

func F() {
	var wg sync.WaitGroup
	wg.Add(1)
	go wg.Done()
	wg.Wait()
}
`}, 2},
	{"fan-out", "aliased import", map[string]string{"internal/x/x.go": "package x\n\nimport s \"sync\"\n\nvar wg s.WaitGroup\n"}, 1},
	{"fan-out", "dot import", map[string]string{"internal/x/x.go": "package x\n\nimport . \"sync\"\n\nvar wg WaitGroup\n"}, 1},
	{"fan-out", "exempt and out of scope", map[string]string{
		"internal/sched/s.go":         "package sched\n\nfunc F() { go F() }\n",
		"internal/serve/journal/j.go": "package journal\n\nfunc F() { go F() }\n",
		"cmd/x/main.go":               "package main\n\nfunc main() { go main() }\n",
	}, 0},

	{"panel-driver", "written", map[string]string{"cmd/x/main.go": `package main

import (
	"parbem/internal/fmm"
	"parbem/internal/op"
	"parbem/internal/pfft"
)

func main() {
	fmm.NewOperator()
	pfft.NewOperator()
	op.Spec{}.AssembleDense()
}
`}, 3},
	{"panel-driver", "aliased import", map[string]string{"cmd/x/main.go": `package main

import (
	mm "parbem/internal/fmm"
	pf "parbem/internal/pfft"
)

func main() {
	mm.NewOperatorWith()
	pf.NewOperatorReuse()
}
`}, 2},
	{"panel-driver", "exempt", map[string]string{"cmd/benchfig8/main.go": "package main\n\nimport \"parbem/internal/fmm\"\n\nfunc main() { fmm.NewOperator() }\n"}, 0},

	{"panel-kernel", "written", map[string]string{"internal/plan/p.go": "package plan\n\nimport \"parbem/internal/kernel\"\n\nfunc f() { kernel.RectGalerkin(); kernel.RectGalerkinBatch() }\n"}, 2},
	{"panel-kernel", "aliased import", map[string]string{"internal/fmm/x.go": "package fmm\n\nimport k \"parbem/internal/kernel\"\n\nvar f = k.RectGalerkin\n"}, 1},
	{"panel-kernel", "out of scope", map[string]string{"internal/assembly/a.go": "package assembly\n\nimport \"parbem/internal/kernel\"\n\nvar f = kernel.RectGalerkin\n"}, 0},

	{"variant", "written", map[string]string{"internal/fmm/v.go": `package fmm

type op struct {
	nearVal, nearExact []float64
	prevOp             *op
}

func (o *op) f(prev *op) float64 { return prev.nearVal[0] + o.prevOp.nearExact[0] }
`}, 2},
	{"variant", "in a test", map[string]string{"internal/pfft/v_test.go": "package pfft\n\nfunc nearLookup() {}\n\nfunc prevRowFind() {}\n"}, 2},

	{"full-matrix wrapper", "written", map[string]string{"cmd/x/main.go": `package main

import (
	"parbem/internal/op"
	"parbem/internal/par"
)

func main() {
	par.Fill()
	op.NewFromDense(nil)
}
`}, 2},
	{"full-matrix wrapper", "aliased import", map[string]string{"cmd/x/main.go": "package main\n\nimport p \"parbem/internal/par\"\n\nfunc main() { p.Fill() }\n"}, 1},
	{"full-matrix wrapper", "declarations", map[string]string{"internal/x/x.go": `package x

import la "parbem/internal/linalg"

type DenseOp struct{}

type S struct{ Dense *la.Dense }

func (S) FillUpper(m *la.Dense) {}

func ParMulVec() {}
`}, 4},

	{"one-factorization", "written", map[string]string{"internal/x/x.go": "package x\n\ntype (\n\tCholesky struct{}\n)\n\nfunc NewCholesky() Cholesky { return Cholesky{} }\n"}, 2},
	{"one-factorization", "aliased import in a test", map[string]string{"internal/x/x_test.go": "package x\n\nimport la \"parbem/internal/linalg\"\n\nvar _ la.Cholesky\n"}, 1},
	{"one-factorization", "in bench", map[string]string{
		"bench/go.mod": "module parbem/bench\n",
		"bench/b.go":   "package main\n\nimport \"parbem/internal/linalg\"\n\nvar _ = linalg.Cholesky{}\n",
	}, 1},

	{"one-preconditioner", "written", map[string]string{"internal/x/x.go": "package x\n\ntype PrecondKind int\n\nfunc NewJacobi() {}\n"}, 2},
	{"one-preconditioner", "facade", map[string]string{"parbem.go": "package parbem\n\nconst PrecondJacobi = 1\n"}, 1},
	{"one-preconditioner", "aliased import", map[string]string{
		"internal/op/j.go": "package op\n\nfunc NewJacobi() {}\n",
		"cmd/x/main.go":    "package main\n\nimport o \"parbem/internal/op\"\n\nfunc main() { o.NewJacobi() }\n",
	}, 2},

	{"one-outcome", "written", map[string]string{"cmd/x/main.go": "package main\n\ntype Interrupted struct{ Stage string }\n\nfunc main() {}\n"}, 1},
	{"one-outcome", "grouped, in a test", map[string]string{"internal/plan/p_test.go": "package plan\n\ntype (\n\tInterrupted struct{}\n)\n"}, 1},

	{"peer-protocol", "written", map[string]string{"internal/serve/s.go": "package serve\n\nconst route = \"GET /artifacts/{key}\"\n"}, 1},
	{"peer-protocol", "raw string", map[string]string{"cmd/x/main.go": "package main\n\nvar u = `http://peer/artifacts/` + \"k\"\n\nfunc main() {}\n"}, 1},

	{"mixed-precision surface", "written", map[string]string{"cmd/x/main.go": `package main

import "flag"

var p = flag.String("precision", "fp64", "")

func ParsePrecision() {}

func main() {}
`}, 2},
	{"mixed-precision surface", "aliased import", map[string]string{"cmd/x/main.go": "package main\n\nimport fl \"flag\"\n\nvar p = fl.String(\"precision\", \"fp64\", \"\")\n\nfunc main() {}\n"}, 1},
	{"mixed-precision surface", "flag set and constant", map[string]string{"cmd/x/main.go": `package main

import "flag"

const name = "precision"

func main() {
	fs := flag.NewFlagSet("x", flag.ExitOnError)
	fs.Bool(name, false, "")
}
`}, 1},
	{"mixed-precision surface", "exempt", map[string]string{"internal/op/m.go": "package op\n\nconst PrecisionMixed = 1\n"}, 0},

	{"constant-physics", "written", map[string]string{"internal/x/x.go": `package x

import "time"

type O struct {
	Eps     float64
	Latency time.Duration
}

func f(a, eps float64) float64 { return a + eps }
`}, 3},
	{"constant-physics", "type alias", map[string]string{"internal/x/x.go": "package x\n\ntype real = float64\n\nfunc f(eps real) real { return eps }\n"}, 1},
	{"constant-physics", "inferred float64", map[string]string{"cmd/x/main.go": "package main\n\nfunc main() { eps := 1e-12; _ = eps }\n"}, 1},
	{"constant-physics", "root package", map[string]string{"parbem.go": "package parbem\n\nvar LeafSize = 32\n"}, 1},
	{"constant-physics", "untyped constant", map[string]string{"internal/x/x.go": "package x\n\nconst eps = 1e-300\n"}, 0},
}
