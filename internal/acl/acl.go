// Package acl implements the Alive Corrupted Locations table of the paper
// (§III-C, Figure 3). Given a faulty trace and its matching fault-free
// trace, it performs value-aware taint propagation (the refinement of
// dynamic taint analysis described in §IV-B: tainted locations that are
// never used again, or that are overwritten by clean values, leave the set)
// and reports, after every dynamic instruction, how many corrupted locations
// are still alive — the series whose rise and fall reveals resilience
// computation patterns.
package acl

import (
	"fmt"
	"sort"
	"sync"

	"fliptracker/internal/ir"
	"fliptracker/internal/trace"
)

// EventKind classifies corruption lifecycle events.
type EventKind uint8

const (
	// Corrupted marks a location entering the corrupted set.
	Corrupted EventKind = iota
	// DeadOverwrite marks a corrupted location overwritten by a clean
	// value (resilience pattern 6, data overwriting).
	DeadOverwrite
	// DeadUnused marks a corrupted location after its last use: it will
	// never be referenced again (the dead-corrupted-locations pattern 1).
	DeadUnused
	// Masked marks an instruction that consumed a corrupted source but
	// produced the correct value (shift/truncation/compare masking).
	Masked
)

// String names the kind.
func (k EventKind) String() string {
	switch k {
	case Corrupted:
		return "corrupted"
	case DeadOverwrite:
		return "dead-overwrite"
	case DeadUnused:
		return "dead-unused"
	case Masked:
		return "masked"
	}
	return fmt.Sprintf("event(%d)", uint8(k))
}

// Event is one corruption lifecycle event at a trace record index.
type Event struct {
	RecIndex int
	Loc      trace.Loc
	Kind     EventKind
	SID      int32
}

// Interval is one corruption lifetime of one location.
type Interval struct {
	Loc trace.Loc
	// Begin is the record index at which the location became corrupted.
	Begin int
	// End is the record index at which it died (overwrite or last use);
	// len(recs) if corrupted through the end of the trace.
	End int
	// ByOverwrite distinguishes pattern-6 deaths from dead-unused deaths.
	ByOverwrite bool
}

// Result is the full ACL analysis of one faulty run.
type Result struct {
	// Series[i] is the number of alive corrupted locations after record i
	// of the faulty trace.
	Series []int32
	// Events lists corruption/death/masking events in trace order.
	Events []Event
	// Intervals lists the corruption lifetimes.
	Intervals []Interval
	// InjectionIndex is the record index where the first value difference
	// between faulty and clean traces appears; -1 when the runs are
	// value-identical (the fault vanished without a trace).
	InjectionIndex int
	// DivergenceIndex is the first record index where control flow
	// diverges (SID mismatch), or -1. Value-aware taint stops there and
	// conservative taint continues.
	DivergenceIndex int
	// Peak is the maximum of Series.
	Peak int32
}

// Options tune the analysis. The zero value is the paper's algorithm.
type Options struct {
	// SkipLiveness disables the backward last-use refinement: corrupted
	// locations then stay "alive" until overwritten, the conservative
	// plain-taint behaviour the paper's §IV-B explicitly improves on.
	// Exposed for the ablation bench called out in DESIGN.md.
	SkipLiveness bool
}

// scratch is the pooled per-analysis working set: the taint map, the
// liveness pass' last-read table, the filter fronting whichever of the two
// maps is in use, and finishSeries' sweep buffer. Pooling reuses them across
// the faults a campaign worker analyzes. Nothing in a Result aliases scratch
// memory, so returning one to the pool after the Result is built is safe.
type scratch struct {
	tainted map[trace.Loc]int   // loc -> open interval index
	pending map[trace.Loc]int32 // loc -> slot in last, liveness pass only
	filter  locFilter
	last    []int32
	diff    []int32
}

// locFilter is a one-hash Bloom filter over locations. The taint set and
// the liveness pass' pending set are small next to the locations a trace
// touches, so most per-record lookups in them miss; the filter answers
// those without probing the map. Bits are never cleared: a location that
// left the set only costs a map probe.
type locFilter [1024]uint64

func (f *locFilter) add(l trace.Loc) {
	h := filterHash(l)
	f[h>>6] |= 1 << (h & 63)
}

func (f *locFilter) mayHave(l trace.Loc) bool {
	h := filterHash(l)
	return f[h>>6]&(1<<(h&63)) != 0
}

// filterHash is a Fibonacci hash of the location onto the filter's 2^16
// bits.
func filterHash(l trace.Loc) uint64 { return uint64(l) * 0x9E3779B97F4A7C15 >> 48 }

var scratchPool = sync.Pool{New: func() any {
	return &scratch{
		tainted: map[trace.Loc]int{},
		pending: map[trace.Loc]int32{},
	}
}}

// release clears the maps (retaining their buckets) and returns the scratch
// to the pool.
func (sc *scratch) release() {
	clear(sc.tainted)
	clear(sc.pending)
	scratchPool.Put(sc)
}

// Analyze runs the ACL construction. faulty and clean must be full traces
// (TraceFull) of the same program, clean without a fault. The comparison is
// value-aware while control flow matches; after divergence, taint
// propagation falls back to classic (value-blind) tainting.
func Analyze(faulty, clean *trace.Trace) *Result {
	return AnalyzeWith(faulty, clean, Options{})
}

// AnalyzeWith is Analyze with explicit options.
func AnalyzeWith(faulty, clean *trace.Trace, opts Options) *Result {
	n := faulty.Recs.Len()
	res := &Result{
		Series:          make([]int32, n),
		InjectionIndex:  -1,
		DivergenceIndex: -1,
	}
	sc := scratchPool.Get().(*scratch)
	defer sc.release()

	// Forward value-aware taint, reading the record columns directly.
	tainted, filter := sc.tainted, &sc.filter
	clear(filter[:])
	// Callers open only untainted locations and close only tainted ones.
	openInterval := func(loc trace.Loc, at int, sid int32) {
		res.Intervals = append(res.Intervals, Interval{Loc: loc, Begin: at, End: n})
		tainted[loc] = len(res.Intervals) - 1
		filter.add(loc)
		res.Events = append(res.Events, Event{RecIndex: at, Loc: loc, Kind: Corrupted, SID: sid})
	}
	// Intervals close during the forward pass only by an overwrite; the
	// rest stay open to the end of the trace until liveness trims them.
	closeByOverwrite := func(loc trace.Loc, at int, sid int32) {
		ii := tainted[loc]
		delete(tainted, loc)
		res.Intervals[ii].End = at
		res.Intervals[ii].ByOverwrite = true
		res.Events = append(res.Events, Event{RecIndex: at, Loc: loc, Kind: DeadOverwrite, SID: sid})
	}

	fr, cr := &faulty.Recs, &clean.Recs
	matched := min(cr.Len(), n)
	for i := 0; i < n; i++ {
		sid := fr.SID(i)
		valueAware := res.DivergenceIndex < 0 && i < matched
		if valueAware && cr.SID(i) != sid {
			res.DivergenceIndex = i
			valueAware = false
		}

		// Detect corrupted sources. With value-awareness, a source whose
		// value differs from the clean run is corrupted even if taint has
		// not reached it yet (this is how memory-targeted faults surface:
		// the flipped cell first appears as a load source).
		anyTaintedSrc := false
		for s := range fr.NSrc(i) {
			loc := fr.Src(i, s)
			if loc == 0 {
				continue
			}
			if filter.mayHave(loc) {
				if _, ok := tainted[loc]; ok {
					anyTaintedSrc = true
					continue
				}
			}
			if valueAware && fr.SrcVal(i, s) != cr.SrcVal(i, s) {
				openInterval(loc, i, sid)
				if res.InjectionIndex < 0 {
					res.InjectionIndex = i
				}
				anyTaintedSrc = true
			}
		}

		// Conditional statements have no destination, but a tainted
		// condition that still takes the correct direction is the
		// conditional-statement resilience pattern (pattern 3).
		if anyTaintedSrc && valueAware && fr.Op(i) == ir.OpCondBr && fr.Taken(i) == cr.Taken(i) {
			res.Events = append(res.Events, Event{RecIndex: i, Loc: fr.Src(i, 0), Kind: Masked, SID: sid})
		}

		dst := fr.Dst(i)
		if dst == 0 {
			continue
		}
		dstTainted := false
		if filter.mayHave(dst) {
			_, dstTainted = tainted[dst]
		}
		switch {
		case valueAware && fr.DstVal(i) != cr.DstVal(i):
			// Destination is wrong (whether or not taint explains it
			// — covers FaultDst injections directly).
			if res.InjectionIndex < 0 {
				res.InjectionIndex = i
			}
			if !dstTainted {
				openInterval(dst, i, sid)
			}
		case valueAware:
			// Correct value written. If the destination was tainted it
			// has been overwritten clean; if sources were tainted the
			// operation masked the error.
			if dstTainted {
				closeByOverwrite(dst, i, sid)
			}
			if anyTaintedSrc {
				res.Events = append(res.Events, Event{RecIndex: i, Loc: dst, Kind: Masked, SID: sid})
			}
		case anyTaintedSrc:
			// Conservative taint after divergence.
			if !dstTainted {
				openInterval(dst, i, sid)
			}
		case dstTainted:
			closeByOverwrite(dst, i, sid)
		}
	}

	if !opts.SkipLiveness {
		refineLiveness(res, fr, sc)
	}
	return finishSeries(res, n, sc)
}

// refineLiveness trims every interval not closed by an overwrite to the
// last read of its location: such an interval ends at that read, or, with
// no read at all while corrupted, right after Begin (dead on arrival).
//
// Only these intervals need reads, and each is still open at the end of the
// trace, so a location has at most one and its last read in the whole trace
// decides it: after Begin, the interval ends there; at or before Begin, it
// was never read while corrupted. One backward scan finds each location's
// last read and stops once every location is resolved, or at the earliest
// Begin+1, below which no read decides anything.
func refineLiveness(res *Result, fr *trace.Recs, sc *scratch) {
	n := fr.Len()
	pending, filter := sc.pending, &sc.filter
	clear(filter[:])
	last := sc.last[:0]
	lo := n
	for _, iv := range res.Intervals {
		if iv.ByOverwrite {
			continue
		}
		pending[iv.Loc] = int32(len(last))
		filter.add(iv.Loc)
		last = append(last, -1)
		lo = min(lo, iv.Begin+1)
	}
	sc.last = last
	for i := n - 1; i >= lo && len(pending) > 0; i-- {
		for s := range fr.NSrc(i) {
			loc := fr.Src(i, s)
			if !filter.mayHave(loc) {
				continue
			}
			if k, ok := pending[loc]; ok {
				last[k] = int32(i)
				delete(pending, loc)
			}
		}
	}

	k := 0
	for ii := range res.Intervals {
		iv := &res.Intervals[ii]
		if iv.ByOverwrite {
			continue
		}
		r := int(last[k])
		k++
		if r <= iv.Begin {
			// Never read while corrupted: dead immediately after Begin.
			iv.End = min(iv.Begin+1, n)
			res.Events = append(res.Events, Event{RecIndex: iv.Begin, Loc: iv.Loc, Kind: DeadUnused, SID: fr.SID(iv.Begin)})
			continue
		}
		if r+1 < iv.End {
			iv.End = r + 1
			res.Events = append(res.Events, Event{RecIndex: r, Loc: iv.Loc, Kind: DeadUnused, SID: fr.SID(r)})
		}
	}
}

// finishSeries materializes Series/Peak from the intervals and sorts events.
// The sweep buffer comes from the pooled scratch.
func finishSeries(res *Result, n int, sc *scratch) *Result {
	if cap(sc.diff) < n+1 {
		sc.diff = make([]int32, n+1)
	}
	diff := sc.diff[:n+1]
	clear(diff)
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

// SeriesInSpan extracts the ACL sub-series covering one region-instance span.
func (r *Result) SeriesInSpan(s trace.Span) []int32 {
	if s.Start < 0 || s.Start >= len(r.Series) {
		return nil
	}
	end := s.End
	if end > len(r.Series) {
		end = len(r.Series)
	}
	return r.Series[s.Start:end]
}

// TouchesSpan reports whether the corruption reached the span: either a
// corruption lifetime interval overlaps it, or the injection itself landed
// inside it (which counts even when the corrupted value died on arrival).
// This is the filter the per-fault pipeline applies to precomputed region
// spans to decide which instances need the full DDDG comparison.
func (r *Result) TouchesSpan(s trace.Span) bool {
	for _, iv := range r.Intervals {
		if iv.Begin < s.End && iv.End > s.Start {
			return true
		}
	}
	return r.InjectionIndex >= s.Start && r.InjectionIndex < s.End
}

// DropWithinSpan reports how much the ACL count decreased from its peak
// within the span to the span's end — the signature of patterns that kill
// corrupted locations (DCL, overwriting).
func (r *Result) DropWithinSpan(s trace.Span) int32 {
	ser := r.SeriesInSpan(s)
	if len(ser) == 0 {
		return 0
	}
	var peak int32
	for _, v := range ser {
		if v > peak {
			peak = v
		}
	}
	return peak - ser[len(ser)-1]
}

// MagPoint is one observation of a location's error magnitude over time.
type MagPoint struct {
	RecIndex int
	Correct  ir.Word
	Faulty   ir.Word
	ErrMag   float64
}

// TrackLocation returns the error-magnitude history of one location: each
// time the location is written in both runs at matching records, the
// relative error of the faulty value is recorded. This reproduces the
// Table II methodology (u[10][10][10] across mg3P invocations).
func TrackLocation(faulty, clean *trace.Trace, loc trace.Loc, t ir.Type, errMag func(correct, faulty ir.Word, typ ir.Type) float64) []MagPoint {
	n := faulty.Recs.Len()
	if clean.Recs.Len() < n {
		n = clean.Recs.Len()
	}
	var out []MagPoint
	for i := 0; i < n; i++ {
		fr, cr := faulty.Recs.At(i), clean.Recs.At(i)
		if fr.SID != cr.SID {
			break // control-flow divergence; stop matching
		}
		if fr.HasDst() && fr.Dst == loc {
			out = append(out, MagPoint{
				RecIndex: i,
				Correct:  cr.DstVal,
				Faulty:   fr.DstVal,
				ErrMag:   errMag(cr.DstVal, fr.DstVal, t),
			})
		}
	}
	return out
}
