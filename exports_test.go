package mlink

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// exportAllowlist names exported functions and methods under internal/ that
// no non-test file calls but that stay on purpose. Keys are
// "<package dir>.<Func>" or "<package dir>.<Recv>.<Method>". Every entry
// must name a declaration that is otherwise unused, and a test must
// reference that very declaration.
var exportAllowlist = map[string]string{
	// The naive per-ray synthesis: the reference arm of the
	// EnvironmentResponse gate and of the cache-consistency tests in the
	// propagation, csi and scenario suites, so no one package's tests can
	// hold it.
	"internal/propagation.Environment.Response": "per-ray reference of the EnvironmentResponse gate and the cache-consistency tests",
	// A geometry oracle the geom, scenario and propagation suites check
	// positions against.
	"internal/geom.Segment.DistToPoint": "point-to-segment distance the suites check positions against",
	// A record oracle: the engine, fleet and facade suites compare restored
	// link state against it, across packages.
	"internal/engine.Engine.ExportLink": "link record oracle the engine, fleet and facade suites compare restored state against",
	// Safety code.
	"internal/fleet.Journal.Err": "the journal's sticky fault report, for callers that must know writes stopped",
	// Test seams the engine and csinet suites drive directly.
	"internal/csinet.Server.ClientCount":     "observes accepted connections in the server tests",
	"internal/csinet.Client.SetRecvDeadline": "bounds a blocking receive in the client tests",
	// Called through an interface by the standard library.
	"internal/serve.statusWriter.Unwrap": "http.ResponseController unwraps the middleware writer through it",
}

// fieldAllowlist names exported struct fields under internal/ that no
// non-test code sets but that stay on purpose, keyed
// "<package dir>.<Type>.<Field>". Every entry must name a field that a test
// sets.
var fieldAllowlist = map[string]string{
	// A reference arm: the paper's Eq. 12 weighting, set by
	// BenchmarkAblationStabilityRatio.
	"internal/core.Config.UsePerPacketWeights": "Eq. 12 arm of BenchmarkAblationStabilityRatio",
	// A deployment setting, driven by the redial suite's wedged-client test.
	"internal/csinet.Server.WriteTimeout": "per-message write deadline, set by TestServerDisconnectsSlowClient",
}

// TestNoTestOnlyExports fails when an exported function or method in a
// non-test file under internal/ is referenced only by tests, or when an
// exported field of a struct declared there is set only by tests: production
// code keeps only what production runs, reference oracles live in _test.go
// files, and a knob no production caller sets is a constant. Every non-test
// file of the module and of perfbench/ is type-checked, and a reference
// counts only if it resolves to that very declaration: a function through
// its package, a method on its own receiver type (a same-named method of
// another type does not count). A method also counts as used when non-test
// code calls a same-named method through an interface its receiver type
// implements, as the engine calls Source.Next; fmt.Stringer's String and
// error's Error count as called, since fmt calls them on what it prints.
// Calls a function makes to itself do not count. Methods of a type the
// facade re-exports by alias (Frame, VerdictFrame, VerdictSubscription,
// ChaosSource) are library API and exempt. A field counts as set by a
// composite-literal key or position, an assignment, ++/--, or &x.F
// (embedded fields included); a write inside the withDefaults method of the field's own type (a value-receiver
// method returning that type) fills a default and does not count. Test files
// are type-checked too, so an allowlist entry must name a declaration that a
// test references (a field: sets). A type-check error fails the test.
func TestNoTestOnlyExports(t *testing.T) {
	s := scanExports(t, ".", "mlink")
	t.Logf("%d exported struct fields under internal/", s.fields)
	listed := map[string]bool{} // allowlist entries naming an unused declaration of their kind
	for _, u := range s.unused {
		allow, what := exportAllowlist, "exported but referenced only by tests"
		if u.field {
			allow, what = fieldAllowlist, "exported field set by no non-test code"
		}
		if _, ok := allow[u.key]; ok {
			listed[u.key] = true
		} else {
			t.Errorf("%s: %s (%s)", what, u.key, u.pos)
		}
	}
	for _, allow := range []map[string]string{exportAllowlist, fieldAllowlist} {
		for key := range allow {
			switch {
			case s.used[key]:
				t.Errorf("allowlist entry %s has a non-test use; drop the entry", key)
			case !listed[key]:
				t.Errorf("allowlist entry %s names no exported declaration of its kind", key)
			case !s.tested[key]:
				t.Errorf("allowlist entry %s is used by no test either; delete the code", key)
			}
		}
	}
}

// TestExportScanByReceiverType pins the guard's rule on a fixture module:
// two types declare Same, and only A's is called, so B.Same alone is
// reported; Impl.Run is called only through an interface and counts; the
// facade's aliased type is exempt, yet its method's call to Helper counts;
// Recur calls only itself and is reported. Of Knobs' fields, Keyed (a
// composite-literal key), Point's fields (positional) and Counted (++ in a
// method) are set; Defaulted is set only in withDefaults and TestSet only
// by a test, so both are reported. A test calls Recur and sets TestSet, so
// those two count as tested; B.Same does not, though a test calls its
// namesake A.Same.
func TestExportScanByReceiverType(t *testing.T) {
	s := scanExports(t, "testdata/exportscan", "fixture")
	var got, tested []string
	for _, u := range s.unused {
		got = append(got, u.key)
		if s.tested[u.key] {
			tested = append(tested, u.key)
		}
	}
	want := []string{"internal/pair.B.Same", "internal/pair.Knobs.Defaulted",
		"internal/pair.Knobs.TestSet", "internal/pair.Recur"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("unused exports = %v, want %v", got, want)
	}
	if want := []string{"internal/pair.Knobs.TestSet", "internal/pair.Recur"}; !reflect.DeepEqual(tested, want) {
		t.Fatalf("tested unused exports = %v, want %v", tested, want)
	}
}

// unusedExport is one exported declaration under internal/ with no non-test
// reference (a field: no non-test write).
type unusedExport struct {
	key   string // as in exportAllowlist or fieldAllowlist
	pos   token.Position
	field bool
}

// exportScan is what scanExports finds.
type exportScan struct {
	unused []unusedExport  // sorted by key
	used   map[string]bool // keys non-test code references or sets
	tested map[string]bool // keys test code references or sets
	fields int             // exported struct fields declared under internal/
}

// scanExports type-checks every Go package under root, whose module path is
// mod, and reports the exported declarations under internal/ that non-test
// code and test code use. A nested go.mod whose module path is mod/<dir> (as
// perfbench's is) is checked as part of the same tree. Each package's
// in-package test files are checked again together with its non-test files,
// and its external _test package on its own against that result; a test use
// is matched to a declaration by position, which both checks share.
func scanExports(t *testing.T, root, mod string) exportScan {
	t.Helper()
	fset := token.NewFileSet()
	// Import path → non-test files, in-package test files, and external
	// _test package files.
	files, tests, xtests := map[string][]*ast.File{}, map[string][]*ast.File{}, map[string][]*ast.File{}
	walkGo(t, root, func(p string) error {
		dir, name := filepath.Split(p)
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		ip := path.Join(mod, filepath.ToSlash(rel))
		switch {
		case !strings.HasSuffix(name, "_test.go"):
			files[ip] = append(files[ip], f)
		case strings.HasSuffix(f.Name.Name, "_test"):
			xtests[ip] = append(xtests[ip], f)
		default:
			tests[ip] = append(tests[ip], f)
		}
		return nil
	})

	info := newInfo()
	imp := &localImporter{mod: mod, fset: fset, files: files, info: info,
		std: importer.Default(), pkgs: map[string]*types.Package{}}
	imp.conf = types.Config{Importer: imp}
	paths := make([]string, 0, len(files))
	for ip := range files {
		paths = append(paths, ip)
	}
	sort.Strings(paths)
	for _, ip := range paths {
		if _, err := imp.Import(ip); err != nil {
			t.Errorf("type-check %s: %v", ip, err)
		}
	}
	if t.Failed() {
		t.FailNow()
	}

	// Types the facade (the module's root package) re-exports by alias.
	aliased := map[*types.TypeName]bool{}
	if facade := imp.pkgs[mod]; facade != nil {
		for _, name := range facade.Scope().Names() {
			if tn, ok := facade.Scope().Lookup(name).(*types.TypeName); ok && tn.IsAlias() {
				if n, ok := types.Unalias(tn.Type()).(*types.Named); ok {
					aliased[n.Obj()] = true
				}
			}
		}
	}

	type declared struct {
		key   string
		obj   types.Object // *types.Func, or a field's *types.Var
		pos   token.Position
		field bool
	}
	var decls []declared
	keyAt := map[token.Pos]string{}           // declaration position → key
	owner := map[*types.Var]*types.TypeName{} // declared field → its struct type
	var s exportScan
	for _, ip := range paths {
		dir := strings.TrimPrefix(ip, mod+"/")
		if !strings.HasPrefix(dir, "internal/") {
			continue
		}
		for _, f := range files[ip] {
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					if !decl.Name.IsExported() {
						continue
					}
					fn := info.Defs[decl.Name].(*types.Func)
					key := dir + "." + decl.Name.Name
					if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
						named := receiverNamed(recv.Type())
						if aliased[named.Obj()] {
							continue
						}
						key = dir + "." + named.Obj().Name() + "." + decl.Name.Name
					}
					decls = append(decls, declared{key, fn, fset.Position(decl.Pos()), false})
				case *ast.GenDecl:
					for _, spec := range decl.Specs {
						ts, ok := spec.(*ast.TypeSpec)
						if !ok {
							continue
						}
						if _, ok := ts.Type.(*ast.StructType); !ok {
							continue
						}
						tn := info.Defs[ts.Name].(*types.TypeName)
						st := tn.Type().Underlying().(*types.Struct)
						for i := range st.NumFields() {
							if v := st.Field(i); v.Exported() {
								owner[v] = tn
								s.fields++
								decls = append(decls, declared{dir + "." + ts.Name.Name + "." + v.Name(),
									v, fset.Position(v.Pos()), true})
							}
						}
					}
				}
			}
		}
	}
	for _, d := range decls {
		keyAt[d.obj.Pos()] = d.key
	}

	// Non-test references and writes.
	refs := map[types.Object]bool{}
	// Interface methods non-test code calls, starting with the two that fmt
	// calls on every operand it formats.
	fmtPkg, err := imp.Import("fmt")
	if err != nil {
		t.Fatal(err)
	}
	ifaceCalls := map[*types.Func]bool{
		fmtPkg.Scope().Lookup("Stringer").Type().Underlying().(*types.Interface).Method(0): true,
		types.Universe.Lookup("error").Type().Underlying().(*types.Interface).Method(0):    true,
	}
	for _, ip := range paths {
		for _, f := range files[ip] {
			for _, decl := range f.Decls {
				var node ast.Node = decl
				var self types.Object
				var defaults *types.TypeName // the type whose withDefaults this is
				if fd, ok := decl.(*ast.FuncDecl); ok {
					if fd.Body == nil {
						continue
					}
					self, node = info.Defs[fd.Name], fd.Body
					defaults = withDefaultsOf(self.(*types.Func))
				}
				inspectUses(info, node, func(obj types.Object, write bool) {
					switch obj := obj.(type) {
					case *types.Func:
						if obj == self {
							return
						}
						refs[obj] = true
						if recv := obj.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
							ifaceCalls[obj] = true
						}
					case *types.Var:
						if write && (defaults == nil || owner[obj] != defaults) {
							refs[obj] = true
						}
					}
				})
			}
		}
	}

	// Test references and writes, matched to declarations by position.
	s.tested = map[string]bool{}
	markTested := func(info *types.Info, files []*ast.File) {
		for _, f := range files {
			inspectUses(info, f, func(obj types.Object, write bool) {
				if _, isFunc := obj.(*types.Func); isFunc || write {
					if key, ok := keyAt[obj.Pos()]; ok {
						s.tested[key] = true
					}
				}
			})
		}
	}
	for _, ip := range paths {
		pkg := imp.pkgs[ip]
		if len(tests[ip]) > 0 {
			ti := newInfo()
			conf := types.Config{Importer: imp}
			p, err := conf.Check(ip, fset, append(append([]*ast.File{}, files[ip]...), tests[ip]...), ti)
			if err != nil {
				t.Fatalf("type-check %s with its tests: %v", ip, err)
			}
			markTested(ti, tests[ip])
			pkg = p
		}
		if len(xtests[ip]) > 0 {
			// As go test builds them, the external tests see ip checked with
			// its in-package tests (an export_test.go file's declarations
			// included), and so does every module package they import that
			// imports ip: those are checked again against that variant.
			ximp := &localImporter{mod: mod, fset: fset, files: files, info: newInfo(),
				std: imp.std, pkgs: map[string]*types.Package{ip: pkg}}
			ximp.conf = types.Config{Importer: ximp}
			for dep, p := range imp.pkgs {
				if dep != ip && !importsPath(p, ip) {
					ximp.pkgs[dep] = p
				}
			}
			ti := newInfo()
			conf := types.Config{Importer: ximp}
			if _, err := conf.Check(ip+"_test", fset, xtests[ip], ti); err != nil {
				t.Fatalf("type-check %s_test: %v", ip, err)
			}
			markTested(ti, xtests[ip])
		}
	}

	s.used = map[string]bool{}
	for _, d := range decls {
		fn, isFunc := d.obj.(*types.Func)
		if refs[d.obj] || isFunc && calledThroughInterface(fn, ifaceCalls) {
			s.used[d.key] = true
			continue
		}
		s.unused = append(s.unused, unusedExport{d.key, d.pos, d.field})
	}
	sort.Slice(s.unused, func(i, j int) bool { return s.unused[i].key < s.unused[j].key })
	return s
}

func newInfo() *types.Info {
	return &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
}

// inspectUses calls use on every function or field that node references,
// each generic one by its origin, with write set when the reference sets a
// field: a composite-literal key or position, the target of an assignment
// or ++/--, or the operand of &.
func inspectUses(info *types.Info, node ast.Node, use func(obj types.Object, write bool)) {
	field := func(obj types.Object, write bool) {
		switch obj := obj.(type) {
		case *types.Func:
			use(obj.Origin(), false)
		case *types.Var:
			if obj.IsField() {
				use(obj.Origin(), write)
			}
		}
	}
	writeSel := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			field(info.Uses[sel.Sel], true)
		}
	}
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			field(info.Uses[n], false)
		case *ast.CompositeLit:
			t := info.TypeOf(n)
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			st, ok := t.Underlying().(*types.Struct)
			if !ok {
				return true
			}
			for i, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					field(info.Uses[kv.Key.(*ast.Ident)], true)
				} else {
					field(st.Field(i), true)
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				writeSel(lhs)
			}
		case *ast.IncDecStmt:
			writeSel(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				writeSel(n.X)
			}
		}
		return true
	})
}

// withDefaultsOf returns T when fn is a value-receiver method of T that
// returns T, the shape of a method filling a config's zero fields, and nil
// otherwise.
func withDefaultsOf(fn *types.Func) *types.TypeName {
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil || sig.Results().Len() != 1 {
		return nil
	}
	named, ok := sig.Recv().Type().(*types.Named)
	if !ok || !types.Identical(named, sig.Results().At(0).Type()) {
		return nil
	}
	return named.Obj()
}

// calledThroughInterface reports whether one of the interface methods in
// calls has m's name and belongs to an interface m's receiver type (or a
// pointer to it) implements.
func calledThroughInterface(m *types.Func, calls map[*types.Func]bool) bool {
	recv := m.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	named := receiverNamed(recv.Type())
	for c := range calls {
		if c.Name() != m.Name() {
			continue
		}
		iface := c.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
		if types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface) {
			return true
		}
	}
	return false
}

// receiverNamed returns the named type of a method receiver, T or *T.
func receiverNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named)
}

// localImporter type-checks the module's own packages from the parsed files
// on first import, recording into one shared types.Info, and takes every
// other package from the standard importer.
type localImporter struct {
	mod   string
	fset  *token.FileSet
	files map[string][]*ast.File
	info  *types.Info
	std   types.Importer
	conf  types.Config
	pkgs  map[string]*types.Package
}

func (l *localImporter) Import(ip string) (*types.Package, error) {
	if ip != l.mod && !strings.HasPrefix(ip, l.mod+"/") {
		return l.std.Import(ip)
	}
	if p, ok := l.pkgs[ip]; ok {
		return p, nil
	}
	p, err := l.conf.Check(ip, l.fset, l.files[ip], l.info)
	l.pkgs[ip] = p
	return p, err
}

// importsPath reports whether p imports the package at ip, directly or
// through other packages.
func importsPath(p *types.Package, ip string) bool {
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package) bool
	walk = func(p *types.Package) bool {
		if seen[p] {
			return false
		}
		seen[p] = true
		for _, q := range p.Imports() {
			if q.Path() == ip || walk(q) {
				return true
			}
		}
		return false
	}
	return walk(p)
}

// walkGo calls fn on every .go file under root, skipping hidden and testdata
// directories below it, and fails the test on any error.
func walkGo(t *testing.T, root string, fn func(path string) error) {
	t.Helper()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir():
			if p != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		case strings.HasSuffix(p, ".go"):
			return fn(p)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
