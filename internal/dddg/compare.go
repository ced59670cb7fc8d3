package dddg

import (
	"math"
	"sync"

	"fliptracker/internal/ir"
	"fliptracker/internal/trace"
)

// ErrMag computes the paper's error magnitude (Equation 2): the relative
// error of a faulty value with respect to its correct value. Integer words
// are compared as exact integers converted to float64. A corrupted zero
// yields +Inf, matching Table II's first row.
func ErrMag(correct, faulty ir.Word, t ir.Type) float64 {
	if correct == faulty {
		return 0
	}
	var c, f float64
	if t == ir.F64 {
		c, f = correct.Float(), faulty.Float()
	} else {
		c, f = float64(correct.Int()), float64(faulty.Int())
	}
	if c == f { // distinct bits, equal values (e.g. -0.0 vs +0.0)
		return 0
	}
	if c == 0 {
		return math.Inf(1)
	}
	return math.Abs(c-f) / math.Abs(c)
}

// LocDelta reports one location whose value differs between the fault-free
// and faulty runs at a region boundary.
type LocDelta struct {
	Loc     trace.Loc
	Correct ir.Word
	Faulty  ir.Word
	Typ     ir.Type
	ErrMag  float64
}

// RegionComparison is the §III-D faulty-vs-fault-free analysis of one code
// region instance.
type RegionComparison struct {
	// CorruptedInputs are input locations whose incoming values differ.
	CorruptedInputs []LocDelta
	// CorruptedOutputs are output locations whose final values differ.
	CorruptedOutputs []LocDelta
	// DivergedAt is the first operation index at which control flow
	// diverged within the region, or -1.
	DivergedAt int
	// MaxInputErr and MaxOutputErr are the largest finite error magnitudes
	// observed (0 when no corruption).
	MaxInputErr, MaxOutputErr float64
	// Case1 holds when at least one input is corrupted but every output is
	// correct: the region masked the error outright.
	Case1 bool
	// Case2 holds when inputs and outputs are corrupted but the error
	// magnitude shrank across the region.
	Case2 bool
}

// Tolerant reports whether the region exhibited fault tolerance under either
// of the paper's two cases.
func (c *RegionComparison) Tolerant() bool { return c.Case1 || c.Case2 }

// CompareRegion matches one region instance between a fault-free trace and a
// faulty trace and classifies its fault tolerance. Both spans should refer
// to the same region and instance number; the traces must come from runs of
// the same sealed program with identical host behaviour (§V-B's determinism
// requirement, which the interpreter's seeded RNG provides).
func CompareRegion(clean *trace.Trace, cs trace.Span, faulty *trace.Trace, fs trace.Span) *RegionComparison {
	return CompareRegionWith(Build(clean, cs), faulty, fs)
}

// CompareRegionWith is CompareRegion with a prebuilt graph of the fault-free
// instance, for pipelines that analyze many faults against one clean run:
// the clean graph is built once (e.g. cached in a core.CleanIndex) and
// reused across every per-fault comparison instead of being reconstructed
// per call. The graph remembers the trace and span it was built from, so
// only the faulty side is passed.
//
// The faulty side needs no graph of its own: the comparison reads only the
// first-read values of the clean graph's InputMemLocs and the final values
// of its WrittenMemLocs, so one pass over the faulty span fills those into
// dense per-location tables, with the same version rules as Build.
func CompareRegionWith(gClean *Graph, faulty *trace.Trace, fs trace.Span) *RegionComparison {
	cx := gClean.compareIndex()
	tab := faultyValues(cx, faulty, fs)
	defer slotPool.Put(tab)

	res := &RegionComparison{DivergedAt: Diverged(gClean.src, gClean.span, faulty, fs)}

	// Inputs: memory locations read-before-written in the clean region.
	for _, c := range cx.inputs {
		st := &(*tab)[c.slot]
		if !st.input {
			continue // control-flow divergence removed the read
		}
		if fv := st.in; c.val != fv {
			d := LocDelta{Loc: c.loc, Correct: c.val, Faulty: fv, Typ: c.typ, ErrMag: ErrMag(c.val, fv, c.typ)}
			res.CorruptedInputs = append(res.CorruptedInputs, d)
			if !math.IsInf(d.ErrMag, 1) && d.ErrMag > res.MaxInputErr {
				res.MaxInputErr = d.ErrMag
			}
		}
	}

	// Outputs: memory locations written in the clean region, compared at
	// their final values.
	for _, c := range cx.outputs {
		st := &(*tab)[c.slot]
		if !st.seen {
			continue // the faulty span neither read nor wrote it
		}
		if fv := st.final; c.val != fv {
			d := LocDelta{Loc: c.loc, Correct: c.val, Faulty: fv, Typ: c.typ, ErrMag: ErrMag(c.val, fv, c.typ)}
			res.CorruptedOutputs = append(res.CorruptedOutputs, d)
			if !math.IsInf(d.ErrMag, 1) && d.ErrMag > res.MaxOutputErr {
				res.MaxOutputErr = d.ErrMag
			}
		}
	}

	if len(res.CorruptedInputs) > 0 && len(res.CorruptedOutputs) == 0 {
		res.Case1 = true
	}
	if len(res.CorruptedInputs) > 0 && len(res.CorruptedOutputs) > 0 &&
		res.MaxOutputErr < res.MaxInputErr {
		res.Case2 = true
	}
	return res
}

// compareIndex is the clean-side half of a comparison, derived once per
// clean graph: the locations a comparison reads, each with its clean value
// and type and a dense slot in the faulty-side table.
type compareIndex struct {
	// slot numbers every location of inputs and outputs (a location that
	// is both shares one slot).
	slot map[trace.Loc]int32
	// inputs are the graph's InputMemLocs with their first-read values;
	// outputs its WrittenMemLocs with their final values. Both sorted.
	inputs, outputs []compareLoc
}

type compareLoc struct {
	loc  trace.Loc
	slot int32
	val  ir.Word
	typ  ir.Type
}

// compareIndex returns the graph's comparison index, deriving it on first
// use. Graphs are shared read-only across goroutines, hence the Once.
func (g *Graph) compareIndex() *compareIndex {
	g.cmpOnce.Do(func() {
		cx := &compareIndex{slot: map[trace.Loc]int32{}}
		add := func(loc trace.Loc, id NodeID) compareLoc {
			s, ok := cx.slot[loc]
			if !ok {
				s = int32(len(cx.slot))
				cx.slot[loc] = s
			}
			return compareLoc{loc: loc, slot: s, val: g.Nodes[id].Val, typ: g.Nodes[id].Typ}
		}
		for _, loc := range g.InputMemLocs() {
			cx.inputs = append(cx.inputs, add(loc, g.externals[loc]))
		}
		for _, loc := range g.WrittenMemLocs() {
			cx.outputs = append(cx.outputs, add(loc, g.final[loc]))
		}
		g.cmp = cx
	})
	return g.cmp
}

// slotState is what a faulty span did to one compared location.
type slotState struct {
	// in is the value of the span's first access when that access was a
	// read (input set): the location's external version in Build's terms.
	in ir.Word
	// final is the location's last version: its last write, or in when it
	// was only read (seen set).
	final       ir.Word
	seen, input bool
}

// slotPool recycles the faulty-side tables across comparisons.
var slotPool = sync.Pool{New: func() any { return new([]slotState) }}

// faultyValues makes one pass over the faulty span and records, for each
// location of cx, the values Build would give its external and final
// versions: region markers are skipped, a record's sources resolve before
// its destination, and a read defines the external version only if the
// span has not read or written the location before.
func faultyValues(cx *compareIndex, faulty *trace.Trace, fs trace.Span) *[]slotState {
	tab := slotPool.Get().(*[]slotState)
	if cap(*tab) < len(cx.slot) {
		*tab = make([]slotState, len(cx.slot))
	}
	*tab = (*tab)[:len(cx.slot)]
	clear(*tab)
	t := *tab
	recs := &faulty.Recs
	end := min(fs.End, recs.Len())
	for i := fs.Start; i < end; i++ {
		if op := recs.Op(i); op == ir.OpRegionEnter || op == ir.OpRegionExit {
			continue
		}
		for s := range recs.NSrc(i) {
			loc := recs.Src(i, s)
			if !loc.IsMem() {
				continue
			}
			if p, ok := cx.slot[loc]; ok && !t[p].seen {
				v := recs.SrcVal(i, s)
				t[p] = slotState{in: v, final: v, seen: true, input: true}
			}
		}
		if dst := recs.Dst(i); dst.IsMem() {
			if p, ok := cx.slot[dst]; ok {
				t[p].seen = true
				t[p].final = recs.DstVal(i)
			}
		}
	}
	return tab
}
