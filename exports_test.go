package mlink

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// exportAllowlist names exported functions and methods under internal/ that
// no non-test file calls but that stay on purpose. Keys are
// "<package dir>.<Func>" or "<package dir>.<Recv>.<Method>".
var exportAllowlist = map[string]string{
	// Reference arms of cmd/benchcheck's in-run speedup gates.
	"internal/csi.Extractor.CaptureNaive":        "uncached reference arm of the ExtractorCapture speedup gate",
	"internal/propagation.Environment.Response":  "uncached reference arm of the EnvironmentResponse speedup gate",
	"internal/propagation.Environment.OracleLOS": "LOS reference of the EnvironmentResponse gate and the cache tests",
	"internal/dsp.NewMixedRadixTransform":        "mixed-radix reference arm of the SubcarrierWeights speedup gate",
	"internal/dsp.MedianQuickselect":             "quickselect reference arm of the SubcarrierWeights speedup gate",
	// The forward half of the planned transform pair; the round-trip and
	// Parseval suites check IDFTInto against it.
	"internal/dsp.Transform.DFTInto": "forward transform paired with the production IDFTInto",
	// Facade API kept for library users.
	"internal/campus.Aggregator.SaveAll": "campus persistence behind the facade's Campus.SaveAll",
	"internal/campus.Aggregator.LoadAll": "campus persistence behind the facade's Campus.LoadAll",
	// Test seams the engine and csinet suites drive directly.
	"internal/engine.Engine.ScoreWindow":     "synchronous scoring seam for the engine's decision tests",
	"internal/engine.ExtractorSource":        "engine Source adapter for simulated links",
	"internal/engine.PooledExtractorSource":  "engine Source adapter for simulated links with frame recycling",
	"internal/engine.ClientSource":           "engine Source adapter over a csinet client",
	"internal/engine.NewReplaySource":        "engine Source adapter replaying recorded frames",
	"internal/csinet.Redial":                 "reconnecting client, driven by the redial suite",
	"internal/csinet.Redialer.Connect":       "reconnecting client, driven by the redial suite",
	"internal/csinet.Server.ClientCount":     "observes accepted connections in the server tests",
	"internal/csinet.Client.SetRecvDeadline": "bounds a blocking receive in the client tests",
	"internal/scenario.ChaosSource.Stall":    "fault injection driven by the chaos suites",
	"internal/scenario.ChaosSource.Resume":   "fault injection driven by the chaos suites",
	// Called through an interface by the standard library.
	"internal/serve.statusWriter.Unwrap": "http.ResponseController unwraps the middleware writer through it",
}

// TestNoTestOnlyExports fails when an exported function or method in a
// non-test file under internal/ is referenced only by tests: production code
// keeps only what production runs, and reference oracles live in _test.go
// files. A reference is matched by name — a package-level function through
// its package qualifier (or bare, inside its own package), a method through
// any selector of that name — and a function's calls to itself do not
// count. The perfbench module's non-test files count as callers.
func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	type declared struct {
		key, name string // key as in exportAllowlist; name is the bare identifier
		method    bool
		pos       token.Position
	}
	var decls []declared
	funcRefs := map[string]bool{}   // "<dir>.<Func>"
	methodRefs := map[string]bool{} // method name, any receiver
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		imports := map[string]string{} // local name → package dir
		for _, im := range f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			if !strings.HasPrefix(p, "mlink/") {
				continue
			}
			name := p[strings.LastIndex(p, "/")+1:]
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = strings.TrimPrefix(p, "mlink/")
		}
		for _, decl := range f.Decls {
			var node ast.Node = decl
			self := ""
			if fd, ok := decl.(*ast.FuncDecl); ok {
				if fd.Recv == nil {
					self = dir + "." + fd.Name.Name
				}
				if strings.HasPrefix(dir, "internal/") && fd.Name.IsExported() {
					key := dir + "." + fd.Name.Name
					if fd.Recv != nil {
						key = dir + "." + receiverName(fd.Recv.List[0].Type) + "." + fd.Name.Name
					}
					decls = append(decls, declared{key, fd.Name.Name, fd.Recv != nil, fset.Position(fd.Pos())})
				}
				if fd.Body == nil {
					continue
				}
				node = fd.Body
			}
			ast.Inspect(node, func(n ast.Node) bool { return visitRef(n, dir, self, imports, funcRefs, methodRefs) })
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var unused []string
	known := map[string]bool{}
	for _, d := range decls {
		known[d.key] = true
		used := funcRefs[d.key]
		if d.method {
			used = methodRefs[d.name]
		}
		if _, ok := exportAllowlist[d.key]; !used && !ok {
			unused = append(unused, d.key+" ("+d.pos.String()+")")
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("exported but referenced only by tests: %s", u)
	}
	for key := range exportAllowlist {
		if !known[key] {
			t.Errorf("allowlist entry %s names no exported declaration", key)
		}
	}
}

// visitRef records one node's references: a qualified pkg.Func, a bare Func
// of the current package, or a method/field selector name. self is the
// enclosing function's own key, so a recursive call does not count.
func visitRef(n ast.Node, dir, self string, imports map[string]string, funcRefs, methodRefs map[string]bool) bool {
	switch n := n.(type) {
	case *ast.SelectorExpr:
		if id, ok := n.X.(*ast.Ident); ok {
			if p, ok := imports[id.Name]; ok {
				funcRefs[p+"."+n.Sel.Name] = true
				return false
			}
		}
		methodRefs[n.Sel.Name] = true
	case *ast.Ident:
		if key := dir + "." + n.Name; key != self {
			funcRefs[key] = true
		}
	}
	return true
}

// receiverName returns the base type name of a method receiver expression.
func receiverName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return receiverName(e.X)
	case *ast.IndexExpr:
		return receiverName(e.X)
	case *ast.IndexListExpr:
		return receiverName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return ""
}
