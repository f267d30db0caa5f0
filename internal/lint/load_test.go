package lint

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestExpandSkipsNestedModules: "./..." must match what the go tool matches,
// so a subdirectory with its own go.mod (and everything under it) belongs to
// another module and is not expanded.
func TestExpandSkipsNestedModules(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod":                  "module example.com/m\n\ngo 1.22\n",
		"a.go":                    "package m\n",
		"sub/b.go":                "package sub\n",
		"nested/go.mod":           "module example.com/m/nested\n\ngo 1.22\n",
		"nested/c.go":             "package nested\n",
		"nested/deeper/d.go":      "package deeper\n",
		"sub/inner/go.mod":        "module example.com/inner\n\ngo 1.22\n",
		"sub/inner/e.go":          "package inner\n",
		"sub/inner/more/f.go":     "package more\n",
		"sub/keep/g.go":           "package keep\n",
		"sub/keep/g_test.go":      "package keep\n",
		"sub/onlytests/h_test.go": "package onlytests\n",
	}
	for name, body := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	got, err := l.Expand([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"example.com/m", "example.com/m/sub", "example.com/m/sub/keep"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Expand(./...) = %v, want %v", got, want)
	}
}
