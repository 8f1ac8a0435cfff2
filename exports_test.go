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
// must name a declaration that is otherwise unused, and a _test.go file must
// name it.
var exportAllowlist = map[string]string{
	// Reference arms of cmd/benchcheck's in-run speedup gates.
	"internal/csi.Extractor.CaptureNaive":        "uncached reference arm of the ExtractorCapture speedup gate",
	"internal/propagation.Environment.OracleLOS": "LOS reference of the EnvironmentResponse gate and the cache tests",
	// The forward half of the planned transform pair; the round-trip and
	// Parseval suites check IDFTInto against it.
	"internal/dsp.Transform.DFTInto": "forward transform paired with the production IDFTInto",
	// A geometry oracle the geom, scenario and propagation suites check
	// positions against.
	"internal/geom.Segment.DistToPoint": "point-to-segment distance the suites check positions against",
	// Safety code.
	"internal/fleet.Journal.Err": "the journal's sticky fault report, for callers that must know writes stopped",
	// Test seams the engine and csinet suites drive directly.
	"internal/engine.Engine.ScoreWindow":     "synchronous scoring seam for the engine's decision tests",
	"internal/engine.NewReplaySource":        "engine Source adapter replaying recorded frames",
	"internal/csinet.Redial":                 "reconnecting client, driven by the redial suite",
	"internal/csinet.Redialer.Connect":       "reconnecting client, driven by the redial suite",
	"internal/csinet.Server.ClientCount":     "observes accepted connections in the server tests",
	"internal/csinet.Client.SetRecvDeadline": "bounds a blocking receive in the client tests",
	// Called through an interface by the standard library.
	"internal/serve.statusWriter.Unwrap": "http.ResponseController unwraps the middleware writer through it",
}

// TestNoTestOnlyExports fails when an exported function or method in a
// non-test file under internal/ is referenced only by tests: production code
// keeps only what production runs, and reference oracles live in _test.go
// files. Every non-test file of the module and of perfbench/ is
// type-checked, and a reference counts only if it resolves to that very
// declaration: a function through its package, a method on its own receiver
// type (a same-named method of another type does not count). A method also
// counts as used when non-test code calls a same-named method through an
// interface its receiver type implements, as the engine calls Source.Next;
// fmt.Stringer's String and error's Error count as called, since fmt calls
// them on what it prints. Calls a function makes to itself do not count.
// Methods of a type the facade re-exports by alias (Frame, VerdictFrame,
// VerdictSubscription, ChaosSource) are library API and exempt. A
// type-check error fails the test.
func TestNoTestOnlyExports(t *testing.T) {
	unused, used := scanExports(t, ".", "mlink")
	for _, u := range unused {
		if _, ok := exportAllowlist[u.key]; !ok {
			t.Errorf("exported but referenced only by tests: %s (%s)", u.key, u.pos)
		}
	}
	unusedKeys := map[string]bool{}
	for _, u := range unused {
		unusedKeys[u.key] = true
	}
	testNames := testIdentifiers(t, ".")
	for key := range exportAllowlist {
		switch {
		case used[key]:
			t.Errorf("allowlist entry %s has a non-test caller; drop the entry", key)
		case !unusedKeys[key]:
			t.Errorf("allowlist entry %s names no exported declaration", key)
		case !testNames[key[strings.LastIndex(key, ".")+1:]]:
			t.Errorf("allowlist entry %s is named by no _test.go file either; delete the code", key)
		}
	}
}

// TestExportScanByReceiverType pins the guard's rule on a fixture module:
// two types declare Same, and only A's is called, so B.Same alone is
// reported; Impl.Run is called only through an interface and counts; the
// facade's aliased type is exempt, yet its method's call to Helper counts;
// Recur calls only itself and is reported.
func TestExportScanByReceiverType(t *testing.T) {
	unused, _ := scanExports(t, "testdata/exportscan", "fixture")
	var got []string
	for _, u := range unused {
		got = append(got, u.key)
	}
	want := []string{"internal/pair.B.Same", "internal/pair.Recur"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("unused exports = %v, want %v", got, want)
	}
}

// unusedExport is one exported declaration under internal/ with no non-test
// reference.
type unusedExport struct {
	key string // as in exportAllowlist
	pos token.Position
}

// scanExports type-checks every non-test Go package under root, whose module
// path is mod, and returns the exported declarations under internal/ that no
// non-test code references, sorted by key, plus the keys that are
// referenced. A nested go.mod whose module path is mod/<dir> (as perfbench's
// is) is checked as part of the same tree.
func scanExports(t *testing.T, root, mod string) ([]unusedExport, map[string]bool) {
	t.Helper()
	fset := token.NewFileSet()
	files := map[string][]*ast.File{} // import path → non-test files
	walkGo(t, root, func(p string) error {
		dir, name := filepath.Split(p)
		if strings.HasSuffix(name, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		ip := path.Join(mod, filepath.ToSlash(rel))
		files[ip] = append(files[ip], f)
		return nil
	})

	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
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
		key string
		fn  *types.Func
		pos token.Position
	}
	var decls []declared
	refs := map[*types.Func]bool{}
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
		dir := strings.TrimPrefix(ip, mod+"/")
		for _, f := range files[ip] {
			for _, decl := range f.Decls {
				var node ast.Node = decl
				var self types.Object
				if fd, ok := decl.(*ast.FuncDecl); ok {
					self = info.Defs[fd.Name]
					if strings.HasPrefix(dir, "internal/") && fd.Name.IsExported() {
						fn := self.(*types.Func)
						key, exempt := dir+"."+fd.Name.Name, false
						if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
							named := receiverNamed(recv.Type())
							key = dir + "." + named.Obj().Name() + "." + fd.Name.Name
							exempt = aliased[named.Obj()]
						}
						if !exempt {
							decls = append(decls, declared{key, fn, fset.Position(fd.Pos())})
						}
					}
					if fd.Body == nil {
						continue
					}
					node = fd.Body
				}
				ast.Inspect(node, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					fn, ok := info.Uses[id].(*types.Func)
					if !ok || fn == self {
						return true
					}
					fn = fn.Origin()
					refs[fn] = true
					if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
						ifaceCalls[fn] = true
					}
					return true
				})
			}
		}
	}

	var unused []unusedExport
	used := map[string]bool{}
	for _, d := range decls {
		if refs[d.fn] || calledThroughInterface(d.fn, ifaceCalls) {
			used[d.key] = true
			continue
		}
		unused = append(unused, unusedExport{d.key, d.pos})
	}
	sort.Slice(unused, func(i, j int) bool { return unused[i].key < unused[j].key })
	return unused, used
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

// testIdentifiers returns every identifier named in a _test.go file under
// root.
func testIdentifiers(t *testing.T, root string) map[string]bool {
	t.Helper()
	names := map[string]bool{}
	fset := token.NewFileSet()
	walkGo(t, root, func(p string) error {
		if !strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				names[id.Name] = true
			}
			return true
		})
		return nil
	})
	return names
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
