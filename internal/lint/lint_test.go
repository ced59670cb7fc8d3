package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// lintSource writes one synthetic package into a temp dir and lints it.
func lintSource(t *testing.T, files map[string]string) []Finding {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	fs, err := Dir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// checksOf renders findings as "check:line" for compact assertions.
func checksOf(fs []Finding) []string {
	var out []string
	for _, f := range fs {
		out = append(out, f.Check)
	}
	return out
}

func wantChecks(t *testing.T, got []Finding, want ...string) {
	t.Helper()
	g := checksOf(got)
	if len(g) != len(want) {
		t.Fatalf("got %d findings %v, want %v\nfindings: %v", len(g), g, want, got)
	}
	for i := range want {
		if g[i] != want[i] {
			t.Fatalf("finding %d is %v, want check %s\nfindings: %v", i, got[i], want[i], got)
		}
	}
}

func TestMapRangeFlagged(t *testing.T) {
	fs := lintSource(t, map[string]string{"a.go": `package p

func f(m map[string]int) int {
	s := 0
	for _, v := range m {
		s += v
	}
	return s
}
`})
	wantChecks(t, fs, "maprange")
	if !strings.Contains(fs[0].Msg, "map[string]int") {
		t.Errorf("message %q does not name the map type", fs[0].Msg)
	}
}

func TestSliceAndChannelRangeNotFlagged(t *testing.T) {
	fs := lintSource(t, map[string]string{"a.go": `package p

func f(xs []int, ch chan int, n int) int {
	s := 0
	for _, v := range xs {
		s += v
	}
	for v := range ch {
		s += v
	}
	for i := range n {
		s += i
	}
	return s
}
`})
	wantChecks(t, fs)
}

func TestMapRangeSuppressedWithReason(t *testing.T) {
	fs := lintSource(t, map[string]string{"a.go": `package p

import "sort"

func keys(m map[string]int) []string {
	var ks []string
	for k := range m { //ftlint:ok keys sorted before use
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func keysAbove(m map[string]int) []string {
	var ks []string
	//ftlint:ok keys sorted by the caller
	for k := range m {
		ks = append(ks, k)
	}
	return ks
}
`})
	wantChecks(t, fs)
}

func TestBareAnnotationIsAFinding(t *testing.T) {
	fs := lintSource(t, map[string]string{"a.go": `package p

func f(m map[int]int) {
	for range m { //ftlint:ok
	}
}
`})
	// The bare annotation does not suppress, so both the annotation and the
	// map range are reported.
	wantChecks(t, fs, "annotation", "maprange")
}

func TestDetRandFlagged(t *testing.T) {
	fs := lintSource(t, map[string]string{"a.go": `package p

import (
	"math/rand"
	"time"
)

func f() int64 {
	rand.Seed(42)
	return time.Now().UnixNano() + int64(rand.Intn(10))
}
`})
	wantChecks(t, fs, "detrand", "detrand", "detrand")
}

func TestSeededLocalSourceAllowed(t *testing.T) {
	fs := lintSource(t, map[string]string{"a.go": `package p

import "math/rand"

func f(seed int64) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(10)
}
`})
	wantChecks(t, fs)
}

func TestAliasedImportsTracked(t *testing.T) {
	fs := lintSource(t, map[string]string{"a.go": `package p

import (
	mrand "math/rand"
	t "time"
)

func f() int64 {
	return t.Now().Unix() + int64(mrand.Int())
}
`})
	wantChecks(t, fs, "detrand", "detrand")
}

func TestLocalPackagelikeIdentNotConfused(t *testing.T) {
	// A local variable named "rand" (or a field selector) must not trip the
	// import-qualified check.
	fs := lintSource(t, map[string]string{"a.go": `package p

type source struct{}

func (source) Intn(int) int { return 0 }

func f() int {
	rand := source{}
	return rand.Intn(10)
}
`})
	wantChecks(t, fs)
}

func TestTestFilesExempt(t *testing.T) {
	fs := lintSource(t, map[string]string{"a_test.go": `package p

import "time"

func now() int64 {
	return time.Now().Unix()
}
`})
	wantChecks(t, fs)
}

func TestDirsOnRealEnginePackages(t *testing.T) {
	// The shipped engine packages must lint clean — the same invocation CI
	// runs through cmd/ftlint.
	dirs := []string{
		"../campaign", "../inject", "../mpi", "../journal",
		"../trace", "../core", "../interp", "../ir", "../coord", "../server",
		"../acl", "../dddg", "../patterns", "../stats", "../apps", "../predict",
		"../../cmd/fliptracker",
	}
	fs, err := Dirs(dirs)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fs {
		t.Errorf("%s", f)
	}
}
