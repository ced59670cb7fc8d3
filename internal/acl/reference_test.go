package acl

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"fliptracker/internal/apps"
	"fliptracker/internal/interp"
	"fliptracker/internal/ir"
	"fliptracker/internal/trace"
)

// analyzeReference is the ACL construction before the analysis read the
// record columns directly, kept as the test oracle: row-at-a-time forward
// taint, and read postings for every location of the trace, from record 0,
// binary-searched per interval for its last read.
func analyzeReference(faulty, clean *trace.Trace, opts Options) *Result {
	n := faulty.Recs.Len()
	res := &Result{
		Series:          make([]int32, n),
		InjectionIndex:  -1,
		DivergenceIndex: -1,
	}
	readCount := map[trace.Loc]int32{}

	// Pre-pass: per-location read indices in the faulty trace, for the
	// liveness computation. Two passes carve the posting lists out of one
	// pooled arena — counting first, then filling — so the lists cost no
	// allocations at all once the pool is warm, instead of one growing
	// slice per location per fault.
	frecs := &faulty.Recs
	total := 0
	for i := 0; i < n; i++ {
		for s := 0; s < frecs.NSrc(i); s++ {
			if loc := frecs.Src(i, s); loc != 0 {
				readCount[loc]++
				total++
			}
		}
	}
	arena := make([]int32, total)
	reads := map[trace.Loc][]int32{}
	off := 0
	for loc, cnt := range readCount {
		reads[loc] = arena[off : off : off+int(cnt)]
		off += int(cnt)
	}
	for i := 0; i < n; i++ {
		for s := 0; s < frecs.NSrc(i); s++ {
			if loc := frecs.Src(i, s); loc != 0 {
				reads[loc] = append(reads[loc], int32(i))
			}
		}
	}

	// Forward value-aware taint.
	tainted := map[trace.Loc]int{} // loc -> interval index (open)
	openInterval := func(loc trace.Loc, at int, sid int32) {
		if _, already := tainted[loc]; already {
			return
		}
		res.Intervals = append(res.Intervals, Interval{Loc: loc, Begin: at, End: n})
		tainted[loc] = len(res.Intervals) - 1
		res.Events = append(res.Events, Event{RecIndex: at, Loc: loc, Kind: Corrupted, SID: sid})
	}
	closeInterval := func(loc trace.Loc, at int, sid int32, overwrite bool) {
		ii, ok := tainted[loc]
		if !ok {
			return
		}
		delete(tainted, loc)
		res.Intervals[ii].End = at
		res.Intervals[ii].ByOverwrite = overwrite
		kind := DeadUnused
		if overwrite {
			kind = DeadOverwrite
		}
		res.Events = append(res.Events, Event{RecIndex: at, Loc: loc, Kind: kind, SID: sid})
	}

	matched := clean.Recs.Len()
	if n < matched {
		matched = n
	}
	for i := 0; i < n; i++ {
		fr := frecs.At(i)
		valueAware := res.DivergenceIndex < 0 && i < matched
		var cr trace.Rec
		if valueAware {
			cr = clean.Recs.At(i)
			if cr.SID != fr.SID {
				res.DivergenceIndex = i
				valueAware = false
			}
		}

		// Detect corrupted sources. With value-awareness, a source whose
		// value differs from the clean run is corrupted even if taint has
		// not reached it yet (this is how memory-targeted faults surface:
		// the flipped cell first appears as a load source).
		anyTaintedSrc := false
		for s := 0; s < int(fr.NSrc); s++ {
			loc := fr.Src[s]
			if loc == 0 {
				continue
			}
			if _, ok := tainted[loc]; ok {
				anyTaintedSrc = true
				continue
			}
			if valueAware && fr.SrcVal[s] != cr.SrcVal[s] {
				openInterval(loc, i, fr.SID)
				if res.InjectionIndex < 0 {
					res.InjectionIndex = i
				}
				anyTaintedSrc = true
			}
		}

		// Conditional statements have no destination, but a tainted
		// condition that still takes the correct direction is the
		// conditional-statement resilience pattern (pattern 3).
		if fr.Op == ir.OpCondBr && anyTaintedSrc && valueAware && fr.Taken == cr.Taken {
			res.Events = append(res.Events, Event{RecIndex: i, Loc: fr.Src[0], Kind: Masked, SID: fr.SID})
		}

		if fr.HasDst() {
			switch {
			case valueAware && fr.DstVal != cr.DstVal:
				// Destination is wrong (whether or not taint explains it
				// — covers FaultDst injections directly).
				if res.InjectionIndex < 0 {
					res.InjectionIndex = i
				}
				if _, ok := tainted[fr.Dst]; !ok {
					openInterval(fr.Dst, i, fr.SID)
				}
			case valueAware && fr.DstVal == cr.DstVal:
				// Correct value written. If the destination was tainted it
				// has been overwritten clean; if sources were tainted the
				// operation masked the error.
				if _, ok := tainted[fr.Dst]; ok {
					closeInterval(fr.Dst, i, fr.SID, true)
				}
				if anyTaintedSrc {
					res.Events = append(res.Events, Event{RecIndex: i, Loc: fr.Dst, Kind: Masked, SID: fr.SID})
				}
			case !valueAware && anyTaintedSrc:
				// Conservative taint after divergence.
				if _, ok := tainted[fr.Dst]; !ok {
					openInterval(fr.Dst, i, fr.SID)
				}
			case !valueAware:
				if _, ok := tainted[fr.Dst]; ok {
					closeInterval(fr.Dst, i, fr.SID, true)
				}
			}
		}
	}

	// Liveness refinement: an interval not closed by an overwrite actually
	// ends at the last read of the location within it; with no read at
	// all, the corrupted value was dead on arrival.
	if opts.SkipLiveness {
		return seriesReference(res, n)
	}
	for ii := range res.Intervals {
		iv := &res.Intervals[ii]
		if iv.ByOverwrite {
			continue
		}
		rs := reads[iv.Loc]
		// Find the last read in (iv.Begin, iv.End).
		lo := sort.Search(len(rs), func(k int) bool { return rs[k] > int32(iv.Begin) })
		hi := sort.Search(len(rs), func(k int) bool { return rs[k] >= int32(iv.End) })
		if lo >= hi {
			// Never read while corrupted: dead immediately after Begin.
			end := iv.Begin + 1
			if end > n {
				end = n
			}
			iv.End = end
			res.Events = append(res.Events, Event{RecIndex: iv.Begin, Loc: iv.Loc, Kind: DeadUnused, SID: frecs.SID(iv.Begin)})
			continue
		}
		last := int(rs[hi-1])
		if last+1 < iv.End {
			iv.End = last + 1
			res.Events = append(res.Events, Event{RecIndex: last, Loc: iv.Loc, Kind: DeadUnused, SID: frecs.SID(last)})
		}
	}

	return seriesReference(res, n)
}

func seriesReference(res *Result, n int) *Result {
	diff := make([]int32, n+1)
	for _, iv := range res.Intervals {
		if iv.Begin >= n || iv.End <= iv.Begin {
			continue
		}
		diff[iv.Begin]++
		if iv.End <= n {
			diff[iv.End]--
		}
	}
	var cur int32
	for i := 0; i < n; i++ {
		cur += diff[i]
		res.Series[i] = cur
		if cur > res.Peak {
			res.Peak = cur
		}
	}
	sort.SliceStable(res.Events, func(a, b int) bool { return res.Events[a].RecIndex < res.Events[b].RecIndex })
	return res
}

// divergentTracePair is randomTracePair with the faulty run's control flow
// diverging at a random record after the flip: from there its records carry
// other instruction ids and their taint is tracked value-blind. For some
// seeds the faulty run is also longer or shorter than the clean one.
func divergentTracePair(seed int64) (clean, faulty *trace.Trace) {
	clean, faulty = randomTracePair(seed)
	rng := rand.New(rand.NewSource(^seed))
	n := faulty.Recs.Len()
	at := n/2 + rng.Intn(n/2)
	end := n + rng.Intn(20) - 10
	var recs []trace.Rec
	for i := 0; i < end; i++ {
		var r trace.Rec
		if i < n {
			r = faulty.Recs.At(i)
		} else {
			r = faulty.Recs.At(rng.Intn(n))
		}
		if i >= at {
			r.SID += 1000
		}
		recs = append(recs, r)
	}
	return clean, &trace.Trace{Recs: trace.MakeRecs(recs...)}
}

// TestAnalyzeMatchesReference pins AnalyzeWith to the row-at-a-time
// algorithm with whole-trace postings, with and without the liveness
// refinement, on matched and diverging random trace pairs.
func TestAnalyzeMatchesReference(t *testing.T) {
	var intervals, deadUnused int
	for seed := int64(0); seed < 500; seed++ {
		for _, pair := range []func(int64) (*trace.Trace, *trace.Trace){randomTracePair, divergentTracePair} {
			clean, faulty := pair(seed)
			for _, opts := range []Options{{}, {SkipLiveness: true}} {
				got := AnalyzeWith(faulty, clean, opts)
				want := analyzeReference(faulty, clean, opts)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d %+v: AnalyzeWith = %+v\nwant %+v", seed, opts, got, want)
				}
				intervals += len(got.Intervals)
				for _, e := range got.Events {
					if e.Kind == DeadUnused {
						deadUnused++
					}
				}
			}
		}
	}
	if intervals == 0 || deadUnused == 0 {
		t.Errorf("random pairs produced %d intervals and %d dead-unused events; expected both nonzero", intervals, deadUnused)
	}
}

// TestAnalyzeMatchesReferenceOnRealFaults runs both algorithms on real CG
// and MG faulty traces, some of which diverge.
func TestAnalyzeMatchesReferenceOnRealFaults(t *testing.T) {
	diverged := 0
	for _, name := range []string{"cg", "mg"} {
		app, _ := apps.Get(name)
		clean, err := app.CleanTrace(interp.TraceFull)
		if err != nil {
			t.Fatal(err)
		}
		steps := clean.Steps
		for _, f := range []interp.Fault{
			{Step: steps / 2, Bit: 40, Kind: interp.FaultDst},
			{Step: steps / 3, Bit: 30, Kind: interp.FaultDst},
			{Step: steps / 10, Bit: 62, Kind: interp.FaultDst},
			{Step: steps - steps/10, Bit: 12, Kind: interp.FaultDst},
			{Step: steps / 5, Bit: 51, Kind: interp.FaultDst},
			{Step: steps * 7 / 20, Bit: 30, Kind: interp.FaultDst}, // diverges on cg
			{Step: steps * 9 / 20, Bit: 3, Kind: interp.FaultDst},  // diverges on mg
		} {
			faulty, err := app.FaultyTrace(interp.TraceFull, f)
			if err != nil {
				t.Fatal(err)
			}
			for _, opts := range []Options{{}, {SkipLiveness: true}} {
				got := AnalyzeWith(faulty, clean, opts)
				if !reflect.DeepEqual(got, analyzeReference(faulty, clean, opts)) {
					t.Fatalf("%s %+v %+v: AnalyzeWith differs from the reference", name, f, opts)
				}
				if got.DivergenceIndex >= 0 {
					diverged++
				}
			}
		}
	}
	if diverged == 0 {
		t.Error("no real fault diverged; the set no longer covers value-blind taint")
	}
}
