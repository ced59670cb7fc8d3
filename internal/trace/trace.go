package trace

import (
	"fmt"
	"sort"

	"fliptracker/internal/ir"
)

// Rec is one dynamic instruction record. NSrc gives how many of Src/SrcVal
// are valid. For OpCondBr, Taken records the branch outcome — comparing Taken
// between faulty and fault-free runs is how control-flow divergence and the
// conditional-statement pattern (pattern 3) are detected. For region markers,
// RegionID holds the region; it is -1 otherwise.
type Rec struct {
	SID      int32
	Op       ir.Opcode
	Typ      ir.Type
	RegionID int32
	NSrc     uint8
	Taken    bool
	Dst      Loc
	Src      [2]Loc
	SrcVal   [2]ir.Word
	DstVal   ir.Word
	// Step is the 0-based dynamic instruction index of this record. Steps
	// count every executed instruction (including unrecorded plain
	// branches), so Step maps records back to fault-injection sites.
	Step uint64
}

// HasDst reports whether the record wrote a destination location.
func (r *Rec) HasDst() bool { return r.Dst != 0 }

// String renders a compact one-line form for debugging.
func (r *Rec) String() string {
	s := fmt.Sprintf("#%d %s", r.SID, r.Op)
	if r.HasDst() {
		s += fmt.Sprintf(" %s=%#x", r.Dst, uint64(r.DstVal))
	}
	for i := 0; i < int(r.NSrc); i++ {
		s += fmt.Sprintf(" %s", r.Src[i])
	}
	if r.Op == ir.OpCondBr {
		s += fmt.Sprintf(" taken=%v", r.Taken)
	}
	return s
}

// RunStatus classifies how an execution ended. Together with output
// verification it yields the paper's three fault manifestations (§II-A):
// Verification Success, Verification Failed, and Crashed (which includes
// hangs).
type RunStatus uint8

const (
	// RunOK means the program ran to completion.
	RunOK RunStatus = iota
	// RunCrashed means an invalid operation terminated the run (bad memory
	// address, integer division by zero, call-depth explosion).
	RunCrashed
	// RunHang means the step limit was exceeded, the stand-in for a hang.
	RunHang
)

// String names the status.
func (s RunStatus) String() string {
	switch s {
	case RunOK:
		return "ok"
	case RunCrashed:
		return "crashed"
	case RunHang:
		return "hang"
	}
	return fmt.Sprintf("status(%d)", uint8(s))
}

// OutVal is one emitted output value. Sci6 marks values that went through the
// 6-significant-digit truncating formatter (pattern 5's sink).
type OutVal struct {
	Val  ir.Word
	Typ  ir.Type
	Sci6 bool
}

// Float returns the output as float64 (converting integer outputs).
func (o OutVal) Float() float64 {
	if o.Typ == ir.F64 {
		return o.Val.Float()
	}
	return float64(o.Val.Int())
}

// Trace is a complete dynamic execution record of one run. Records live in
// a columnar store (see Recs); accessors index it in record order.
type Trace struct {
	ProgName string
	Recs     Recs
	Output   []OutVal
	Status   RunStatus
	// Steps counts executed dynamic instructions even when Recs is empty
	// (untraced runs still report Steps).
	Steps uint64
	// FaultNote describes the injected fault, if any, for reports.
	FaultNote string
}

// Span is a half-open record-index interval [Start, End) covering one dynamic
// instance of a code region. Trace splitting (§IV-A) cuts a trace into such
// spans so each analysis works on a small piece.
type Span struct {
	RegionID int32
	Instance int // 0-based instance number of this region
	Start    int // index of the RegionEnter record
	End      int // index one past the RegionExit record
}

// Len returns the number of records in the span.
func (s Span) Len() int { return s.End - s.Start }

// SplitRegions scans the trace and returns the dynamic instances of every
// region, in trace order. Nested instances of *different* regions overlap
// freely; instances of the same region may nest (recursion) and are matched
// by depth.
func (t *Trace) SplitRegions() []Span {
	var spans []Span
	// The maps are allocated on the first region marker so region-free
	// traces (untraced campaign runs, marker-less workloads) pay nothing.
	var counts map[int32]int
	var open map[int32][]int // region id -> stack of span indices
	recs := &t.Recs
	for i, n := 0, recs.Len(); i < n; i++ {
		switch recs.Op(i) {
		case ir.OpRegionEnter:
			rid := recs.RegionID(i)
			if counts == nil {
				counts = map[int32]int{}
				open = map[int32][]int{}
			}
			spans = append(spans, Span{RegionID: rid, Instance: counts[rid], Start: i, End: -1})
			counts[rid]++
			open[rid] = append(open[rid], len(spans)-1)
		case ir.OpRegionExit:
			if open == nil {
				continue // truncated or marker-unbalanced trace
			}
			rid := recs.RegionID(i)
			st := open[rid]
			if len(st) == 0 {
				continue // truncated trace (crash inside region)
			}
			si := st[len(st)-1]
			open[rid] = st[:len(st)-1]
			spans[si].End = i + 1
		}
	}
	// Close spans left open by a crash at the end of the trace.
	for _, st := range open { //ftlint:ok each span index is patched once; order has no effect
		for _, si := range st {
			spans[si].End = recs.Len()
		}
	}
	return spans
}

// StepsMonotonic reports whether record steps never decrease (several
// records may share one step — calls record one per argument). Monotonicity
// is what makes cutting a trace's records by Step sound; a value-returning
// call breaks it, because its OpRet record is stamped with the call-site's
// step but emitted at return time, after the callee's higher-step records.
// Both campaign engines (inject and mpi) gate clean-prefix stitching on it.
func StepsMonotonic(recs Recs) bool {
	for i := 1; i < recs.Len(); i++ {
		if recs.Step(i) < recs.Step(i-1) {
			return false
		}
	}
	return true
}

// StepPrefix returns the records whose step is below step: when steps are
// monotonic (StepsMonotonic), exactly the records a traced run laid down
// before pausing at that step. Both campaign engines seed a run resumed from
// a checkpoint with the clean trace's prefix, so its stitched trace matches
// a from-step-0 traced run.
func (r *Recs) StepPrefix(step uint64) Recs {
	return r.Slice(0, sort.Search(r.Len(), func(i int) bool { return r.Step(i) >= step }))
}

// InstancesOf returns the spans of one region, in instance order.
func (t *Trace) InstancesOf(regionID int32) []Span {
	var out []Span
	for _, s := range t.SplitRegions() {
		if s.RegionID == regionID {
			out = append(out, s)
		}
	}
	return out
}

// Instance returns span number n of the given region.
func (t *Trace) Instance(regionID int32, n int) (Span, bool) {
	for _, s := range t.SplitRegions() {
		if s.RegionID == regionID && s.Instance == n {
			return s, true
		}
	}
	return Span{}, false
}

// SpanIndex is a prebuilt lookup over one trace's region spans. SplitRegions
// scans the whole trace on every call; analyses that resolve many instances
// of many regions (the per-fault pipeline, campaign population resolution)
// build one index instead and look spans up in O(1)/O(instances). The index
// is immutable after construction and safe for concurrent readers.
type SpanIndex struct {
	spans    []Span
	byRegion map[int32][]Span
}

// NewSpanIndex splits the trace once and indexes the spans by region.
func NewSpanIndex(t *Trace) *SpanIndex {
	spans := t.SplitRegions()
	ix := &SpanIndex{spans: spans, byRegion: make(map[int32][]Span)}
	for _, s := range spans {
		ix.byRegion[s.RegionID] = append(ix.byRegion[s.RegionID], s)
	}
	return ix
}

// Spans returns every region-instance span in trace order (the SplitRegions
// order). Callers must not mutate the returned slice.
func (ix *SpanIndex) Spans() []Span { return ix.spans }

// Instances returns the spans of one region in instance order. Callers must
// not mutate the returned slice.
func (ix *SpanIndex) Instances(regionID int32) []Span { return ix.byRegion[regionID] }

// Instance returns span number n of the given region.
func (ix *SpanIndex) Instance(regionID int32, n int) (Span, bool) {
	spans := ix.byRegion[regionID]
	// Instances are numbered in enter order, so span n is at position n
	// except in truncated traces; fall back to a scan if the fast path
	// misses.
	if n >= 0 && n < len(spans) && spans[n].Instance == n {
		return spans[n], true
	}
	for _, s := range spans {
		if s.Instance == n {
			return s, true
		}
	}
	return Span{}, false
}
