package experiments

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

// The goldens below pin the non-timing output of the harnesses that run
// single faulty runs or replayed worlds themselves (Figure 4, Figure 7,
// Table II). They were captured before those harnesses moved off the
// campaign engine's replay primitive and the CleanIndex run methods, and
// have no update flag: a mismatch is a behaviour change.

// digest hashes a sequence of fixed-size values (FNV-1a, little-endian).
func digest(vals ...any) uint64 {
	h := fnv.New64a()
	for _, v := range vals {
		if err := binary.Write(h, binary.LittleEndian, v); err != nil {
			panic(err)
		}
	}
	return h.Sum64()
}

func TestFig7Golden(t *testing.T) {
	r, err := ACLSeries(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	vals := []any{r.Series, int64(r.InjectionIndex), r.Peak, []byte(r.Outcome)}
	for _, s := range r.IterationSpans {
		vals = append(vals, s.RegionID, int64(s.Instance), int64(s.Start), int64(s.End))
	}
	const want = 0x6fcb3d2631ccf7cc
	if got := digest(vals...); got != want {
		t.Errorf("fig7 digest = %#x, want %#x (series %d records, injection %d, peak %d, outcome %s, %d spans)",
			got, uint64(want), len(r.Series), r.InjectionIndex, r.Peak, r.Outcome, len(r.IterationSpans))
	}
}

func TestTab2Golden(t *testing.T) {
	r, err := RepeatedAdditionsMagnitude(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	vals := []any{[]byte(r.Outcome)}
	for _, row := range r.Rows {
		vals = append(vals, int64(row.Iteration), math.Float64bits(row.Original),
			math.Float64bits(row.Corrupted), math.Float64bits(row.ErrMag))
	}
	const want = 0x48b225a7fe7b12b1
	if got := digest(vals...); got != want {
		t.Errorf("tab2 digest = %#x, want %#x (outcome %s, rows %+v)", got, uint64(want), r.Outcome, r.Rows)
	}
}

func TestFig4Golden(t *testing.T) {
	r, err := TracingOverhead(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	type row struct {
		app   string
		steps uint64
	}
	want := []row{{"cg", 373974}, {"mg", 48949}, {"kmeans", 80400}, {"is", 190813}, {"lulesh", 287643}}
	var got []row
	for _, rr := range r.Rows {
		got = append(got, row{rr.App, rr.RankSteps})
	}
	if len(got) != len(want) {
		t.Fatalf("fig4 rows = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("fig4 row %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}
