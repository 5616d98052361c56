package chaos

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestSitesMatchFiredFailpoints pins the failpoint registry to the code: the
// sites a schedule can arm must be exactly the string literals passed to
// Fire in the module's non-test Go source. An armed site nothing fires would
// make its faults silently dead; a fired site missing from Sites would never
// be struck by a chaos schedule.
func TestSitesMatchFiredFailpoints(t *testing.T) {
	root := filepath.Join("..", "..")
	fired := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata" || isModule(path)) {
				return filepath.SkipDir // nested modules (bench) are not this module's source
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
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Fire" {
				return true
			}
			lit, ok := call.Args[0].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				t.Errorf("%s: Fire with a non-literal site", fset.Position(call.Pos()))
				return true
			}
			site, err := strconv.Unquote(lit.Value)
			if err != nil {
				t.Fatal(err)
			}
			fired[site] = true
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	armed := map[string]bool{}
	for _, s := range Sites {
		if armed[s] {
			t.Errorf("site %q listed twice in Sites", s)
		}
		armed[s] = true
		if !fired[s] {
			t.Errorf("site %q is in Sites but nothing fires it", s)
		}
	}
	var unarmed []string
	for s := range fired {
		if !armed[s] {
			unarmed = append(unarmed, s)
		}
	}
	slices.Sort(unarmed)
	for _, s := range unarmed {
		t.Errorf("site %q is fired but missing from Sites", s)
	}
	if len(fired) == 0 {
		t.Fatal("found no Fire calls: the walk missed the module source")
	}
}

// isModule reports whether dir holds its own go.mod.
func isModule(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, "go.mod"))
	return err == nil
}
