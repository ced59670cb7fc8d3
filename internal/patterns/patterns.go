// Package patterns identifies the six resilience computation patterns the
// paper defines (§VI) from the DDDG/ACL analysis of faulty runs, and counts
// the pattern-instance rates that drive the resilience prediction model of
// §VII-B (Table IV).
package patterns

import (
	"fmt"
	"sort"

	"fliptracker/internal/acl"
	"fliptracker/internal/dddg"
	"fliptracker/internal/ir"
	"fliptracker/internal/trace"
)

// Pattern enumerates the six resilience computation patterns.
type Pattern uint8

const (
	// DCL is Pattern 1, dead corrupted locations: corrupted values are
	// aggregated into fewer locations and the corrupted sources die unused.
	DCL Pattern = iota
	// RepeatedAddition is Pattern 2: a corrupted location repeatedly added
	// with correct values, amortizing the error until it is acceptable.
	RepeatedAddition
	// Conditional is Pattern 3: a conditional whose outcome is unchanged by
	// the corruption, avoiding control-flow divergence.
	Conditional
	// Shifting is Pattern 4: shifted-out corrupted bits are eliminated.
	Shifting
	// Truncation is Pattern 5: corrupted low-order data is truncated away
	// (narrowing conversions or formatted output).
	Truncation
	// Overwriting is Pattern 6: a corrupted location overwritten by a
	// clean value.
	Overwriting

	// NumPatterns is the number of defined patterns.
	NumPatterns = 6
)

var patternNames = [...]string{
	DCL:              "dead-corrupted-locations",
	RepeatedAddition: "repeated-additions",
	Conditional:      "conditional-statement",
	Shifting:         "shifting",
	Truncation:       "truncation",
	Overwriting:      "data-overwriting",
}

// String names the pattern.
func (p Pattern) String() string {
	if int(p) < len(patternNames) {
		return patternNames[p]
	}
	return fmt.Sprintf("pattern(%d)", uint8(p))
}

// Short returns the abbreviation used in the paper's Table I.
func (p Pattern) Short() string {
	switch p {
	case DCL:
		return "DCL"
	case RepeatedAddition:
		return "RA"
	case Conditional:
		return "CS"
	case Shifting:
		return "Shifting"
	case Truncation:
		return "Trunc"
	case Overwriting:
		return "DO"
	}
	return "?"
}

// Evidence records one observed pattern instance.
type Evidence struct {
	Pattern  Pattern
	RecIndex int
	SID      int32
	Line     int32
	Loc      trace.Loc
	Note     string
}

// Detection is the set of patterns found in one region instance.
type Detection struct {
	Found    [NumPatterns]bool
	Evidence []Evidence
}

// Has reports whether the pattern was detected.
func (d *Detection) Has(p Pattern) bool { return d.Found[p] }

// Count returns how many distinct patterns were detected.
func (d *Detection) Count() int {
	n := 0
	for _, f := range d.Found {
		if f {
			n++
		}
	}
	return n
}

// Detect inspects one region-instance span of a faulty run (with its matched
// fault-free run and completed ACL analysis) and reports which resilience
// patterns acted within the span. prog supplies pseudo source lines for
// evidence; it may be nil.
func Detect(prog *ir.Program, faulty, clean *trace.Trace, span trace.Span, res *acl.Result) *Detection {
	return NewDetector(prog, faulty, clean, res).Detect(span)
}

// Detector runs the per-span pattern detection of one analyzed fault. The
// per-fault inputs (program, matched traces, ACL result) are bound once;
// Detect is then called with precomputed spans — typically the touched
// region instances from a clean-trace index — and locates each span's ACL
// events by binary search over the sorted event list instead of re-scanning
// every event per region. A Detector is immutable and safe for concurrent
// Detect calls.
type Detector struct {
	prog          *ir.Program
	faulty, clean *trace.Trace
	res           *acl.Result
}

// NewDetector binds the per-fault analysis inputs. res.Events must be in
// RecIndex order, which acl.Analyze guarantees.
func NewDetector(prog *ir.Program, faulty, clean *trace.Trace, res *acl.Result) *Detector {
	return &Detector{prog: prog, faulty: faulty, clean: clean, res: res}
}

// Detect reports the resilience patterns that acted within the span.
func (dt *Detector) Detect(span trace.Span) *Detection {
	evs := dt.res.Events
	lo := sort.Search(len(evs), func(i int) bool { return evs[i].RecIndex >= span.Start })
	hi := sort.Search(len(evs), func(i int) bool { return evs[i].RecIndex >= span.End })
	return dt.detect(span, evs[lo:hi])
}

// detect classifies the span's events (already narrowed to the span) and
// runs the span-local repeated-additions scan.
func (dt *Detector) detect(span trace.Span, evs []acl.Event) *Detection {
	prog, faulty, clean, res := dt.prog, dt.faulty, dt.clean, dt.res
	d := &Detection{}
	add := func(p Pattern, recIdx int, loc trace.Loc, note string) {
		d.Found[p] = true
		ev := Evidence{Pattern: p, RecIndex: recIdx, Loc: loc, Note: note}
		if recIdx >= 0 && recIdx < faulty.Recs.Len() {
			ev.SID = faulty.Recs.SID(recIdx)
			if prog != nil {
				if f, off := prog.FuncOf(int(ev.SID)); f != nil {
					ev.Line = f.Code[off].Line
				}
			}
		}
		d.Evidence = append(d.Evidence, ev)
	}

	// Pattern 1 needs *several* corrupted locations dying unused plus a net
	// decrease of alive corrupted locations — a single dead temporary is
	// not the aggregation structure of Figure 8. Collect candidates first.
	var deadUnused []acl.Event

	for _, e := range evs {
		op := faulty.Recs.Op(e.RecIndex)
		switch e.Kind {
		case acl.DeadOverwrite:
			add(Overwriting, e.RecIndex, e.Loc, "corrupted location overwritten by clean value")
		case acl.DeadUnused:
			deadUnused = append(deadUnused, e)
		case acl.Masked:
			switch {
			case op == ir.OpCondBr:
				add(Conditional, e.RecIndex, e.Loc, "branch outcome unchanged by corrupted condition")
			case op.IsCompare():
				add(Conditional, e.RecIndex, e.Loc, "comparison outcome unchanged by corrupted operand")
			case op == ir.OpShl || op == ir.OpLShr || op == ir.OpAShr:
				add(Shifting, e.RecIndex, e.Loc, "corrupted bits shifted out")
			case op == ir.OpFPTrunc || op == ir.OpTruncI32:
				add(Truncation, e.RecIndex, e.Loc, "corrupted bits truncated by narrowing conversion")
			case op == ir.OpEmitSci6:
				add(Truncation, e.RecIndex, e.Loc, "corrupted mantissa cut off by formatted output")
			}
		}
	}

	// Dead corrupted locations: several corrupted locations died unused in
	// the span and the alive-corrupted count actually fell.
	if len(deadUnused) >= dclMinDeaths && res.DropWithinSpan(span) >= dclMinDrop {
		for _, e := range deadUnused {
			add(DCL, e.RecIndex, e.Loc, "corrupted location never referenced again")
		}
	}

	// Repeated additions: a corrupted memory location whose error magnitude
	// shrinks across successive (matched) writes within the span.
	for _, ra := range DetectRepeatedAdditionsInSpans(faulty, clean, []trace.Span{span}) {
		add(RepeatedAddition, ra.LastRecIndex, ra.Loc,
			fmt.Sprintf("error magnitude shrank %.3g -> %.3g over %d additions",
				ra.FirstMag, ra.LastMag, ra.Writes))
	}
	return d
}

// DCL thresholds: the aggregation pattern needs multiple dead corrupted
// temporaries and a real collapse of the ACL count. A linear def-use chain
// (reg -> memory -> reg) produces up to three deaths with a drop of two, so
// the thresholds sit just above that.
const (
	dclMinDeaths = 4
	dclMinDrop   = 3
)

// RAEvidence describes one repeated-additions observation.
type RAEvidence struct {
	Loc          trace.Loc
	Writes       int
	FirstMag     float64
	LastMag      float64
	LastRecIndex int
}

// DetectRepeatedAdditionsInSpans finds memory locations inside the spans
// that are written multiple times with corrupted values whose relative error
// shrinks — the Table II signature. The traces must still be control-flow
// matched in the spans. The amortization usually plays out across
// *instances* of a region (MG's psinv is re-invoked every V-cycle; the
// per-invocation error decay is exactly Table II), so the write history of a
// location is accumulated across all given spans. Hits are returned sorted
// by Loc.
func DetectRepeatedAdditionsInSpans(faulty, clean *trace.Trace, spans []trace.Span) []RAEvidence {
	// hist summarizes the error-magnitude history of one stored location:
	// all the verdict needs is its first nonzero magnitude, its last one,
	// and the number of writes from the first corrupted one on (0 until
	// one is corrupted).
	type hist struct {
		loc              trace.Loc
		writes           int
		firstMag, endMag float64
		lastIdx          int
		isAccum          bool
	}
	var hs []hist
	at := map[trace.Loc]int{}
	fr, cr := &faulty.Recs, &clean.Recs
	for _, span := range spans {
		n := min(span.End, fr.Len(), cr.Len())
		for i := span.Start; i < n; i++ {
			if fr.SID(i) != cr.SID(i) {
				break
			}
			if fr.Op(i) != ir.OpStore {
				continue
			}
			dst := fr.Dst(i)
			if !dst.IsMem() {
				continue
			}
			k, ok := at[dst]
			if !ok {
				k = len(hs)
				at[dst] = k
				hs = append(hs, hist{loc: dst})
			}
			h := &hs[k]
			m := dddg.ErrMag(cr.DstVal(i), fr.DstVal(i), fr.Typ(i))
			if h.writes > 0 {
				h.writes++
			} else if m > 0 {
				h.writes, h.firstMag = 1, m
			}
			h.endMag = m
			h.lastIdx = i
			// Accumulation heuristic: the stored value chain includes an
			// FAdd in the preceding records of this store (checked cheaply
			// by looking back a short window for an fadd writing the
			// source reg).
			src := fr.Src(i, 0)
			for j := i - 1; j >= span.Start && j > i-8; j-- {
				if fr.Op(j) == ir.OpFAdd && fr.HasDst(j) && fr.Dst(j) == src {
					h.isAccum = true
					break
				}
			}
		}
	}
	var out []RAEvidence
	for _, h := range hs {
		// Require an accumulation, a corrupted write followed by at least
		// one more, and a final magnitude strictly smaller than the first
		// nonzero one.
		if !h.isAccum || h.writes < 2 || !(h.endMag < h.firstMag) {
			continue
		}
		out = append(out, RAEvidence{
			Loc:          h.loc,
			Writes:       h.writes,
			FirstMag:     h.firstMag,
			LastMag:      h.endMag,
			LastRecIndex: h.lastIdx,
		})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Loc < out[b].Loc })
	return out
}
