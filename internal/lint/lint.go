// Package lint is FlipTracker's determinism linter: static checks that keep
// nondeterminism out of the engine packages whose outputs are pinned by
// golden FNV digests, durable journals, and byte-identical checkpoint
// contracts.
//
// Two checks, both purely static and dependency-free (go/ast + go/types,
// no external tooling):
//
//   - maprange: ranging over a map yields a randomized iteration order by
//     language design. In packages that feed ordered output or digest paths
//     (campaign result streams, journal records, trace spans), any map range
//     is flagged unless the surrounding code proves order-independence and
//     says so with an annotation.
//
//   - detrand: time.Now and the global math/rand source (rand.Intn, Seed,
//     Shuffle, ...) introduce run-to-run variation. Engine code must draw
//     randomness only from explicitly seeded local sources (rand.New /
//     rand.NewSource), which the check permits.
//
// A finding is suppressed by an annotation comment on the same line or the
// line above:
//
//	for id := range touched { //ftlint:ok results sorted below
//
// The reason is mandatory: a bare //ftlint:ok is itself a finding. Test
// files (_test.go) are exempt from both checks.
//
// Command ftlint (cmd/ftlint) runs these checks over the engine packages
// and exits nonzero on findings; CI runs it on every push.
package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Finding is one determinism violation.
type Finding struct {
	// Pos locates the offending expression or statement.
	Pos token.Position
	// Check names the rule: "maprange", "detrand", or "annotation".
	Check string
	// Msg describes the violation.
	Msg string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Check, f.Msg)
}

// okDirective is the suppression marker: a comment line beginning with
// "//ftlint:ok" (followed by a mandatory reason) on the finding's line or
// the line above.
const okDirective = "ftlint:ok"

// forbiddenRand lists the top-level math/rand (and math/rand/v2) functions
// that read the shared global source. Constructors of explicitly seeded
// local sources (New, NewSource, NewPCG, NewChaCha8, NewZipf) are allowed.
var forbiddenRand = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int32": true, "Int32N": true, "Int64": true, "Int64N": true,
	"Int63": true, "Int63n": true, "IntN": true, "N": true,
	"Uint": true, "Uint32": true, "Uint32N": true, "Uint64": true,
	"Uint64N": true, "UintN": true, "Float32": true, "Float64": true,
	"NormFloat64": true, "ExpFloat64": true, "Perm": true,
	"Shuffle": true, "Read": true, "Seed": true,
}

// Dir lints every non-test Go file of one package directory and returns the
// findings in deterministic (file, line) order.
func Dir(dir string) ([]Finding, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, fmt.Errorf("lint: %s: %w", dir, err)
	}
	var out []Finding
	for _, pkg := range pkgs {
		// Sort files so type checking and reporting are order-stable.
		names := make([]string, 0, len(pkg.Files))
		for name := range pkg.Files { //ftlint:ok sorted immediately below
			names = append(names, name)
		}
		sort.Strings(names)
		files := make([]*ast.File, len(names))
		for i, name := range names {
			files[i] = pkg.Files[name]
		}

		// Best-effort type checking: imports are stubbed out and type errors
		// ignored, so locally declared map types still resolve (the only
		// ones the maprange check can soundly flag) without needing build
		// artifacts or module resolution.
		info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
		conf := types.Config{
			Importer:         stubImporter{},
			Error:            func(error) {},
			IgnoreFuncBodies: false,
		}
		conf.Check(dir, fset, files, info) // error intentionally ignored

		for _, file := range files {
			out = append(out, lintFile(fset, file, info)...)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos.Filename != out[j].Pos.Filename {
			return out[i].Pos.Filename < out[j].Pos.Filename
		}
		return out[i].Pos.Line < out[j].Pos.Line
	})
	return out, nil
}

// Dirs lints several package directories and concatenates their findings.
func Dirs(dirs []string) ([]Finding, error) {
	var out []Finding
	for _, dir := range dirs {
		fs, err := Dir(dir)
		if err != nil {
			return nil, err
		}
		out = append(out, fs...)
	}
	return out, nil
}

// stubImporter satisfies every import with an empty placeholder package, so
// best-effort type checking proceeds without module resolution; expressions
// involving imported names simply get invalid types and are skipped.
type stubImporter struct{}

func (stubImporter) Import(path string) (*types.Package, error) {
	pkg := types.NewPackage(path, filepath.Base(path))
	pkg.MarkComplete()
	return pkg, nil
}

// lintFile runs both checks over one parsed file.
func lintFile(fset *token.FileSet, file *ast.File, info *types.Info) []Finding {
	ok := suppressedLines(fset, file)
	var out []Finding
	report := func(pos token.Pos, check, msg string) {
		p := fset.Position(pos)
		if ok[p.Line] {
			return
		}
		out = append(out, Finding{Pos: p, Check: check, Msg: msg})
	}
	// Bare annotations (no reason) are findings wherever they appear.
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(strings.TrimPrefix(c.Text, "//"), "/*")
			text = strings.TrimSpace(strings.TrimSuffix(text, "*/"))
			if text == okDirective {
				out = append(out, Finding{
					Pos:   fset.Position(c.Pos()),
					Check: "annotation",
					Msg:   "ftlint:ok needs a reason (//ftlint:ok <why this is order-independent>)",
				})
			}
		}
	}

	// Package-qualified references resolve through the file's imports;
	// aliases are honored, dot-imports conservatively map every unqualified
	// name through the dot-imported path.
	imports := map[string]string{} // local name -> import path
	for _, im := range file.Imports {
		path, err := strconv.Unquote(im.Path.Value)
		if err != nil {
			continue
		}
		name := filepath.Base(path)
		if im.Name != nil {
			name = im.Name.Name
		}
		imports[name] = path
	}

	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			if tv, found := info.Types[n.X]; found && tv.Type != nil {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					report(n.Range, "maprange",
						fmt.Sprintf("range over map %s iterates in randomized order; sort the keys or annotate with //ftlint:ok <reason>",
							types.TypeString(tv.Type, func(p *types.Package) string { return p.Name() })))
				}
			}
		case *ast.SelectorExpr:
			pkgIdent, okIdent := n.X.(*ast.Ident)
			if !okIdent || pkgIdent.Obj != nil {
				return true // not a package qualifier (or shadowed)
			}
			switch imports[pkgIdent.Name] {
			case "time":
				if n.Sel.Name == "Now" {
					report(n.Pos(), "detrand",
						"time.Now in engine code varies run to run; thread timestamps in explicitly")
				}
			case "math/rand", "math/rand/v2":
				if forbiddenRand[n.Sel.Name] {
					report(n.Pos(), "detrand",
						fmt.Sprintf("global rand.%s draws from the shared unseeded source; use rand.New(rand.NewSource(seed))", n.Sel.Name))
				}
			}
		}
		return true
	})
	return out
}

// suppressedLines collects the line numbers covered by //ftlint:ok <reason>
// annotations: the annotation's own line and the line below it (so the
// directive can ride the flagged line or sit on its own line above).
func suppressedLines(fset *token.FileSet, file *ast.File) map[int]bool {
	ok := map[int]bool{}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(strings.TrimPrefix(c.Text, "//"), "/*")
			text = strings.TrimSpace(strings.TrimSuffix(text, "*/"))
			if rest, found := strings.CutPrefix(text, okDirective); found && strings.TrimSpace(rest) != "" {
				line := fset.Position(c.Pos()).Line
				ok[line] = true
				ok[line+1] = true
			}
		}
	}
	return ok
}
