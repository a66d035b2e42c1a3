package repro

// Shadow lint: a local variable named after an imported package silently
// shadows that package for the rest of the scope (expt.Names once declared
// `reg := Registry()` under a `repro/internal/reg` import). The standard
// `go vet` suite does not include the shadow analyzer and the toolchain
// here is hermetic, so this test enforces the rule with the stdlib AST —
// it fails on any `:=`, var, or range declaration whose name equals an
// imported package name in the same file.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestNoLocalsShadowImportedPackages(t *testing.T) {
	var violations []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == ".git" || name == "testdata" || name == ".github" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		violations = append(violations, shadowedImports(t, path)...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range violations {
		t.Errorf("local shadows imported package: %s", v)
	}
}

// shadowedImports parses one file and returns "file:line: name" for every
// local declaration that reuses an imported package name.
func shadowedImports(t *testing.T, path string) []string {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	imported := make(map[string]bool)
	for _, imp := range file.Imports {
		switch {
		case imp.Name != nil:
			// Named imports; `_` and `.` never introduce a shadowable name.
			if imp.Name.Name != "_" && imp.Name.Name != "." {
				imported[imp.Name.Name] = true
			}
		default:
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			imported[filepath.Base(p)] = true
		}
	}
	if len(imported) == 0 {
		return nil
	}
	var out []string
	flag := func(id *ast.Ident) {
		if id != nil && imported[id.Name] {
			pos := fset.Position(id.Pos())
			out = append(out, fmt.Sprintf("%s:%d: %s", pos.Filename, pos.Line, id.Name))
		}
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				for _, lhs := range n.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						flag(id)
					}
				}
			}
		case *ast.RangeStmt:
			if n.Tok == token.DEFINE {
				if id, ok := n.Key.(*ast.Ident); ok {
					flag(id)
				}
				if id, ok := n.Value.(*ast.Ident); ok {
					flag(id)
				}
			}
		case *ast.DeclStmt:
			if gd, ok := n.Decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						for _, id := range vs.Names {
							flag(id)
						}
					}
				}
			}
		}
		return true
	})
	return out
}

// Dead-export lint: an exported top-level func or method in a non-test
// file under internal/ must be used somewhere in the repository's non-test
// Go code (cmd/, examples/, perfbench/ and internal/ itself) outside its
// own declaration. Uses are matched by name: any identifier or selector
// with the same name counts, so the check errs towards passing. Tests do
// not count as callers; code only tests reach belongs in a _test.go file.

// unusedExportAllowlist names the exported funcs that may stay without a
// non-test use, each with its reason. An entry that no longer exists, or
// that has gained a use, fails the lint so the list cannot go stale.
var unusedExportAllowlist = map[string]string{
	"circuit.LaneError.Unwrap":          "errors.Is and errors.As call it through an interface the repo never names",
	"sched.NewSprintPlan":               "Eq. 12 reference oracle: integration_test.go checks the stepped sprint against it",
	"sched.SprintPlan.ExtraSolarEnergy": "Eq. 12 reference oracle: the extra solar energy integration_test.go compares",
	"trace.ValidateAll":                 "schema oracle shared by the expt, fleet and scenario trace tests",
	"expt.Fig8":                         "typed Fig. 8 result that bench_test.go reports metrics from",
	"expt.Fig9b":                        "typed Fig. 9b result that bench_test.go reports metrics from",
	"expt.Fig11b":                       "typed Fig. 11b result that bench_test.go reports metrics from",
	"expt.ExtIntermittent":              "typed ext-intermittent result that bench_test.go reports metrics from",
}

func TestNoUnusedExports(t *testing.T) {
	type decl struct{ name, key, pos string }
	var decls []decl
	used := make(map[string]bool)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return fmt.Errorf("parse %s: %v", path, err)
		}
		internal := strings.HasPrefix(filepath.ToSlash(path), "internal/")
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				ast.Inspect(d, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						used[id.Name] = true
					}
					return true
				})
				continue
			}
			name := fd.Name.Name
			// Uses inside a func's own declaration (recursion) do not count.
			ast.Inspect(fd, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && id != fd.Name && id.Name != name {
					used[id.Name] = true
				}
				return true
			})
			// Functional options are exempt: turning an option only tests
			// set into a constant lets the compiler fold constant
			// subexpressions, which can move output bits, so each needs a
			// golden-checked change of its own.
			if !internal || !fd.Name.IsExported() || strings.HasPrefix(name, "With") {
				continue
			}
			key := file.Name.Name + "." + name
			if fd.Recv != nil && len(fd.Recv.List) == 1 {
				key = file.Name.Name + "." + recvTypeName(fd.Recv.List[0].Type) + "." + name
			}
			decls = append(decls, decl{name, key, fset.Position(fd.Pos()).String()})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, d := range decls {
		_, allowed := unusedExportAllowlist[d.key]
		seen[d.key] = true
		switch {
		case used[d.name] && allowed:
			t.Errorf("%s: %s is used outside tests; drop it from unusedExportAllowlist", d.pos, d.key)
		case !used[d.name] && !allowed:
			t.Errorf("%s: exported %s has no non-test use; delete it or move it into a _test.go file", d.pos, d.key)
		}
	}
	for key := range unusedExportAllowlist {
		if !seen[key] {
			t.Errorf("unusedExportAllowlist names %s, which is not declared under internal/", key)
		}
	}
}

// recvTypeName returns the receiver's type name without pointer or type
// parameters.
func recvTypeName(e ast.Expr) string {
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
			return fmt.Sprintf("%T", e)
		}
	}
}
