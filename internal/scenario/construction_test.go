package scenario

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestBuildIsTheOnlyConstructionPath pins scenario.Build as the one place
// that assembles a machine: no non-test file elsewhere in the module may
// reference machine.New, so seeds, fault plans, batch caps and future
// observers reach every machine a binary or experiment runs.
func TestBuildIsTheOnlyConstructionPath(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not found at %s: %v", root, err)
	}
	const allowed = "internal/scenario/scenario.go"
	var sites []string
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			name := d.Name()
			if path == root {
				return nil
			}
			// Skip what the go tool skips (testdata, dot and underscore
			// directories such as .bench_build) and nested modules
			// (anvilbench), which are not part of this module.
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") || rel == allowed {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, pos := range machineNewRefs(f) {
			sites = append(sites, rel+":"+strconv.Itoa(fset.Position(pos).Line))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sites) > 0 {
		t.Errorf("machine.New referenced outside scenario.Build (%d sites); build machines with scenario.Build(scenario.Spec{...}):\n  %s",
			len(sites), strings.Join(sites, "\n  "))
	}
}

// machineNewRefs returns the positions of every machine.New selector in f,
// under whatever name f imports repro/internal/machine.
func machineNewRefs(f *ast.File) []token.Pos {
	name := ""
	for _, imp := range f.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p == "repro/internal/machine" {
			name = "machine"
			if imp.Name != nil {
				name = imp.Name.Name
			}
		}
	}
	if name == "" || name == "_" {
		return nil
	}
	var out []token.Pos
	ast.Inspect(f, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "New" {
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == name {
				out = append(out, sel.Pos())
			}
		}
		return true
	})
	return out
}
