package mpi

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestDependsOnlyOnDriver pins the engine layering: the MPI engine builds on
// the shared campaign driver (internal/campaign), never on the
// single-process engine (internal/inject), directly or through another
// package of the module. It follows the imports of every reachable package's
// non-test files.
func TestDependsOnlyOnDriver(t *testing.T) {
	const module = "fliptracker/"
	banned := map[string]bool{"fliptracker/internal/inject": true}
	seen := map[string]bool{"fliptracker/internal/mpi": true}
	queue := []string{"fliptracker/internal/mpi"}
	for len(queue) > 0 {
		pkg := queue[0]
		queue = queue[1:]
		dir := filepath.Join("..", "..", strings.TrimPrefix(pkg, module))
		files, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range files {
			name := e.Name()
			if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), filepath.Join(dir, name), nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				if banned[path] {
					t.Errorf("%s/%s imports %s", pkg, name, path)
				}
				if strings.HasPrefix(path, module) && !seen[path] {
					seen[path] = true
					queue = append(queue, path)
				}
			}
		}
	}
}
