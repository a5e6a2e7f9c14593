// The test-only API gate. An exported function in internal/ that only
// tests call is API the program does not use: it has to be kept
// working, but nothing depends on it. This test parses every non-test
// source file of the module and of perfbench (go/parser only, no type
// checking) and fails on any exported function or method in internal/
// that no non-test file calls, unless testOnlyKeep names it with the
// reason it stays.
//
// Without types, a caller is matched by name:
//
//   - a package-level function P.F is called when a non-test file of
//     package P uses the identifier F, or a file importing P uses the
//     selector P.F;
//   - a method T.M of an exported type T is called when any non-test
//     file uses a selector .M. Methods of unexported types are not API
//     and are not checked.
//
// The method rule can miss a test-only method whose name is also used
// elsewhere; it never flags a method that has a caller.
package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// testOnlyKeep lists the exported functions that stay although only
// tests call them, keyed as <dir under internal/>.<Func> or
// <dir under internal/>.<Type>.<Method>.
var testOnlyKeep = map[string]string{
	// Independent references: tests check the flow against them.
	"ctrl.BuildRTL":       "independent reference: synthesizes the test controller and simulates it",
	"hscan.Apply":         "independent reference: elaborates an HSCAN result into the physical scan core",
	"gate.NewInjectedSim": "the rtlgen property test's reference fault simulator",
	"gate.Sim.POWords":    "the rtlgen property test's reference fault simulator reads the outputs through it",
	// The make bench pipelining ablation in bench_test.go.
	"sched.PipelinedTAT": "the make bench pipelining ablation",
	// Fixtures shared by the tests of several packages.
	"flowcmd.FormatChipScript": "fixture: chip scripts for the flowcmd, job fuzz and API tests",
	"rtlgen.Many":              "fixture: the seeded core corpus of the rtlgen and atpg tests",
	"socgen.Many":              "fixture: the seeded SoC corpus of the socgen tests",
	"resil.SingleEdgeCuts":     "fixture: the exhaustive broken-wire campaign of the resil tests",
	// Harness and codec helpers.
	"proptest.ShrinkWrapped": "harness: shrinks a failing wrapped-chip parameter set",
	"wrap.SplitScanChain":    "harness: builds the split scan chains of the wrapper property test",
	"shard.AppendFrame":      "codec: writes the checkpoint frames of the codec and fuzz tests",
	"obs.Known":              "harness: the metric-name registry gate",
	"obs/progress.Disable":   "harness: removes the process-global progress bus after a test",
	"obs/progress.Enabled":   "harness: reports whether a test installed the progress bus",
	// Invariant and observability accessors.
	"obs.Tracer.Dropped": "observability accessor: spans lost to ring wraparound",
	"trans.RCG.EndNames": "invariant accessor: the named endpoints of an RCG",
}

// exportedDecl is one exported function or method declared in internal/.
type exportedDecl struct {
	key    string // testOnlyKeep key
	dir    string // package directory under internal/
	name   string
	method bool
	pos    string
}

// TestNoTestOnlyExports fails on every exported function in internal/
// with no caller outside _test.go files, and on every testOnlyKeep entry
// that no longer names such a function.
func TestNoTestOnlyExports(t *testing.T) {
	const module = "repro"
	fset := token.NewFileSet()
	var decls []exportedDecl
	local := map[string]map[string]bool{}     // package dir -> identifiers its non-test files use
	qualified := map[string]map[string]bool{} // package dir -> names other packages select from it
	selected := map[string]bool{}             // every selector name used anywhere
	use := func(m map[string]map[string]bool, dir, name string) {
		if m[dir] == nil {
			m[dir] = map[string]bool{}
		}
		m[dir][name] = true
	}

	for _, root := range []string{"internal", "cmd", "examples", "perfbench"} {
		err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
				return nil
			}
			file, err := parser.ParseFile(fset, p, nil, 0)
			if err != nil {
				return err
			}
			dir := filepath.ToSlash(filepath.Dir(p))
			pkgDir := strings.TrimPrefix(dir, "internal/")

			imports := map[string]string{} // local name -> dir under internal/
			for _, imp := range file.Imports {
				ip, _ := strconv.Unquote(imp.Path.Value)
				if !strings.HasPrefix(ip, module+"/internal/") {
					continue
				}
				name := path.Base(ip)
				if imp.Name != nil {
					name = imp.Name.Name
				}
				imports[name] = strings.TrimPrefix(ip, module+"/internal/")
			}

			declNames := map[*ast.Ident]bool{}
			sels := map[*ast.Ident]bool{}
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				declNames[fd.Name] = true
				if !strings.HasPrefix(dir, "internal/") || !fd.Name.IsExported() {
					continue
				}
				key := pkgDir + "." + fd.Name.Name
				if fd.Recv != nil {
					typ := receiverType(fd.Recv.List[0].Type)
					if !ast.IsExported(typ) {
						continue
					}
					key = pkgDir + "." + typ + "." + fd.Name.Name
				}
				decls = append(decls, exportedDecl{
					key: key, dir: pkgDir, name: fd.Name.Name,
					method: fd.Recv != nil, pos: fset.Position(fd.Pos()).String(),
				})
			}
			// Inspect visits a selector before its Sel identifier, so sels
			// is marked by the time the identifier comes up.
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					sels[n.Sel] = true
					selected[n.Sel.Name] = true
					if x, ok := n.X.(*ast.Ident); ok {
						if imp, ok := imports[x.Name]; ok {
							use(qualified, imp, n.Sel.Name)
						}
					}
				case *ast.Ident:
					if !declNames[n] && !sels[n] {
						use(local, pkgDir, n.Name)
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(decls) == 0 {
		t.Fatal("found no exported functions in internal/ (vacuous scan)")
	}

	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.key] = true
		called := selected[d.name]
		if !d.method {
			called = local[d.dir][d.name] || qualified[d.dir][d.name]
		}
		_, keep := testOnlyKeep[d.key]
		switch {
		case !called && !keep:
			t.Errorf("%s: %s has no caller outside _test.go files: delete it, call the production entry point from its tests, or add it to testOnlyKeep with a reason", d.pos, d.key)
		case called && keep:
			t.Errorf("%s: %s now has a non-test caller: remove it from testOnlyKeep", d.pos, d.key)
		}
	}
	for key := range testOnlyKeep {
		if !declared[key] {
			t.Errorf("testOnlyKeep names %s, which is not an exported function in internal/: remove the entry", key)
		}
	}
}

// receiverType returns the base type name of a method receiver.
func receiverType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
