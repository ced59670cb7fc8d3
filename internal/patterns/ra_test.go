package patterns

import (
	"reflect"
	"sort"
	"testing"

	"fliptracker/internal/apps"
	"fliptracker/internal/dddg"
	"fliptracker/internal/interp"
	"fliptracker/internal/ir"
	"fliptracker/internal/trace"
)

// raReference is the repeated-additions scan before it read the record
// columns and kept a summary per location, kept as the test oracle: it
// materializes full rows and keeps every write's error magnitude. Its hits
// are sorted by Loc, the order DetectRepeatedAdditionsInSpans promises.
func raReference(faulty, clean *trace.Trace, spans []trace.Span) []RAEvidence {
	type hist struct {
		mags    []float64
		lastIdx int
		isAccum bool
	}
	hs := map[trace.Loc]*hist{}
	for _, span := range spans {
		n := min(span.End, faulty.Recs.Len(), clean.Recs.Len())
		for i := span.Start; i < n; i++ {
			fr, cr := faulty.Recs.At(i), clean.Recs.At(i)
			if fr.SID != cr.SID {
				break
			}
			if fr.Op != ir.OpStore || !fr.Dst.IsMem() {
				continue
			}
			h := hs[fr.Dst]
			if h == nil {
				h = &hist{}
				hs[fr.Dst] = h
			}
			h.mags = append(h.mags, dddg.ErrMag(cr.DstVal, fr.DstVal, fr.Typ))
			h.lastIdx = i
			for j := i - 1; j >= span.Start && j > i-8; j-- {
				pr := faulty.Recs.At(j)
				if pr.Op == ir.OpFAdd && pr.HasDst() && pr.Dst == fr.Src[0] {
					h.isAccum = true
					break
				}
			}
		}
	}
	var out []RAEvidence
	for loc, h := range hs {
		if !h.isAccum || len(h.mags) < 2 {
			continue
		}
		first := -1
		for i, m := range h.mags {
			if m > 0 {
				first = i
				break
			}
		}
		if first < 0 || first == len(h.mags)-1 {
			continue
		}
		if last := h.mags[len(h.mags)-1]; last < h.mags[first] {
			out = append(out, RAEvidence{Loc: loc, Writes: len(h.mags) - first, FirstMag: h.mags[first], LastMag: last, LastRecIndex: h.lastIdx})
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Loc < out[b].Loc })
	return out
}

// mgTraces runs MG clean and with each fault, fully traced.
func mgTraces(t *testing.T, faults func(steps uint64) []interp.Fault) (*ir.Program, *trace.Trace, []*trace.Trace) {
	t.Helper()
	app, _ := apps.Get("mg")
	p, err := app.Program()
	if err != nil {
		t.Fatal(err)
	}
	clean, err := app.CleanTrace(interp.TraceFull)
	if err != nil {
		t.Fatal(err)
	}
	var out []*trace.Trace
	for _, f := range faults(clean.Steps) {
		faulty, err := app.FaultyTrace(interp.TraceFull, f)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, faulty)
	}
	return p, clean, out
}

// TestRepeatedAdditionsOrderIsDeterministic calls the cross-instance scan
// repeatedly on an MG region with many hits: every call must return the
// same hits in the same order, sorted by Loc.
func TestRepeatedAdditionsOrderIsDeterministic(t *testing.T) {
	p, clean, faulty := mgTraces(t, func(steps uint64) []interp.Fault {
		return []interp.Fault{{Step: steps / 10, Bit: 30, Kind: interp.FaultDst}}
	})
	r, ok := p.RegionByName("mg_c")
	if !ok {
		t.Fatal("mg has no region mg_c")
	}
	spans := trace.NewSpanIndex(faulty[0]).Instances(int32(r.ID))
	first := DetectRepeatedAdditionsInSpans(faulty[0], clean, spans)
	if len(first) < 2 {
		t.Fatalf("%d hits; the test needs at least two", len(first))
	}
	for i := 1; i < len(first); i++ {
		if first[i-1].Loc >= first[i].Loc {
			t.Fatalf("hits not sorted by Loc at %d: %v then %v", i, first[i-1].Loc, first[i].Loc)
		}
	}
	for k := 0; k < 20; k++ {
		if again := DetectRepeatedAdditionsInSpans(faulty[0], clean, spans); !reflect.DeepEqual(again, first) {
			t.Fatalf("call %d returned a different order or set", k)
		}
	}
}

// TestRepeatedAdditionsMatchesReference pins the column-read scan to the
// row-at-a-time original on every multi-instance MG region, for several
// faults, and on each single instance.
func TestRepeatedAdditionsMatchesReference(t *testing.T) {
	p, clean, faulty := mgTraces(t, func(steps uint64) []interp.Fault {
		return []interp.Fault{
			{Step: steps / 10, Bit: 30, Kind: interp.FaultDst},
			{Step: steps * 4 / 10, Bit: 20, Kind: interp.FaultDst},
			{Step: steps * 9 / 20, Bit: 3, Kind: interp.FaultDst},
			{Step: steps * 8 / 10, Bit: 50, Kind: interp.FaultDst},
		}
	})
	hits := 0
	for _, f := range faulty {
		ix := trace.NewSpanIndex(f)
		for _, r := range p.Regions {
			spans := ix.Instances(int32(r.ID))
			sets := [][]trace.Span{spans}
			for _, s := range spans {
				sets = append(sets, []trace.Span{s})
			}
			for _, set := range sets {
				got, want := DetectRepeatedAdditionsInSpans(f, clean, set), raReference(f, clean, set)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("region %s, %d spans: got %d hits %+v\nwant %d hits %+v", r.Name, len(set), len(got), got, len(want), want)
				}
				hits += len(got)
			}
		}
	}
	if hits == 0 {
		t.Error("no repeated-additions hits; the fault set no longer exercises the scan")
	}
}
