package dddg

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"fliptracker/internal/acl"
	"fliptracker/internal/apps"
	"fliptracker/internal/interp"
	"fliptracker/internal/ir"
	"fliptracker/internal/trace"
)

// compareRegionGraphs is the graph-based comparison CompareRegionWith
// replaced, kept as the test oracle: it builds the whole faulty DDDG with
// Build and reads the clean graph's input and output locations from both
// graphs.
func compareRegionGraphs(gClean *Graph, faulty *trace.Trace, fs trace.Span) *RegionComparison {
	gFaulty := Build(faulty, fs)

	res := &RegionComparison{DivergedAt: Diverged(gClean.src, gClean.span, faulty, fs)}
	for _, loc := range gClean.InputMemLocs() {
		cv, _ := inputValue(gClean, loc)
		fv, ok := inputValue(gFaulty, loc)
		if !ok {
			continue
		}
		if cv != fv {
			d := LocDelta{Loc: loc, Correct: cv, Faulty: fv, Typ: inputType(gClean, loc), ErrMag: ErrMag(cv, fv, inputType(gClean, loc))}
			res.CorruptedInputs = append(res.CorruptedInputs, d)
			if !math.IsInf(d.ErrMag, 1) && d.ErrMag > res.MaxInputErr {
				res.MaxInputErr = d.ErrMag
			}
		}
	}
	for _, loc := range gClean.WrittenMemLocs() {
		cv, _ := gClean.FinalValue(loc)
		fv, ok := gFaulty.FinalValue(loc)
		if !ok {
			continue
		}
		if cv != fv {
			t := finalType(gClean, loc)
			d := LocDelta{Loc: loc, Correct: cv, Faulty: fv, Typ: t, ErrMag: ErrMag(cv, fv, t)}
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

func inputValue(g *Graph, loc trace.Loc) (ir.Word, bool) {
	id, ok := g.externals[loc]
	if !ok {
		return 0, false
	}
	return g.Nodes[id].Val, true
}

func inputType(g *Graph, loc trace.Loc) ir.Type {
	if id, ok := g.externals[loc]; ok {
		return g.Nodes[id].Typ
	}
	return ir.F64
}

func finalType(g *Graph, loc trace.Loc) ir.Type {
	if id, ok := g.final[loc]; ok {
		return g.Nodes[id].Typ
	}
	return ir.F64
}

// randomRec draws one record over a small location set: loads, stores and
// binary ops (sometimes reading the same location twice, sometimes with an
// empty source slot), branches, and region markers.
func randomRec(rng *rand.Rand, sid int32) trace.Rec {
	mem := func() trace.Loc { return trace.MemLoc(int64(100 + rng.Intn(8))) }
	reg := func() trace.Loc { return trace.RegLoc(1, ir.Reg(rng.Intn(4))) }
	any := func() trace.Loc {
		if rng.Intn(2) == 0 {
			return mem()
		}
		return reg()
	}
	val := func() ir.Word { return ir.F64Word(float64(rng.Intn(5))) }
	typ := ir.F64
	if rng.Intn(4) == 0 {
		typ = ir.I64
	}
	r := trace.Rec{SID: sid, Typ: typ, RegionID: -1}
	switch rng.Intn(9) {
	case 0:
		r.Op, r.RegionID = ir.OpRegionEnter, int32(rng.Intn(2))
		if rng.Intn(2) == 0 {
			r.Op = ir.OpRegionExit
		}
	case 1:
		r.Op, r.NSrc = ir.OpCondBr, 1
		r.Src[0], r.SrcVal[0], r.Taken = any(), val(), rng.Intn(2) == 0
	case 2, 3:
		r.Op, r.NSrc = ir.OpLoad, 1
		r.Src[0], r.SrcVal[0], r.Dst, r.DstVal = mem(), val(), reg(), val()
	case 4, 5:
		r.Op, r.NSrc = ir.OpStore, 1
		r.Src[0], r.SrcVal[0], r.Dst, r.DstVal = reg(), val(), mem(), val()
	default:
		r.Op, r.NSrc = ir.OpFAdd, 2
		r.Src[0], r.SrcVal[0], r.Dst, r.DstVal = any(), val(), any(), val()
		switch rng.Intn(4) {
		case 0:
			r.Src[1], r.SrcVal[1] = r.Src[0], r.SrcVal[0]
		case 1:
			r.NSrc = 1
		default:
			r.Src[1], r.SrcVal[1] = any(), val()
		}
	}
	return r
}

// randomComparePair builds a clean trace, a faulty copy, and one span of
// each. The faulty copy flips values at random records, and for some seeds
// diverges: its suffix from a random record is redrawn with other
// instructions, longer or shorter than the clean one.
func randomComparePair(seed int64) (clean, faulty *trace.Trace, cs, fs trace.Span) {
	rng := rand.New(rand.NewSource(seed))
	n := 10 + rng.Intn(60)
	var cr, fr []trace.Rec
	for i := 0; i < n; i++ {
		cr = append(cr, randomRec(rng, int32(i)))
	}
	fr = append(fr, cr...)
	for k := rng.Intn(4); k > 0; k-- {
		i := rng.Intn(n)
		if rng.Intn(2) == 0 {
			fr[i].DstVal ^= 1 << 52
		} else {
			fr[i].SrcVal[rng.Intn(2)] ^= 1 << 40
		}
	}
	if rng.Intn(3) == 0 {
		at := rng.Intn(n)
		fr = fr[:at]
		for i := at; i < n+rng.Intn(10)-5; i++ {
			fr = append(fr, randomRec(rng, int32(1000+i)))
		}
	}
	cs = trace.Span{Start: rng.Intn(n / 2), End: n - rng.Intn(n/2)}
	fs = trace.Span{Start: cs.Start, End: cs.End + rng.Intn(10) - 5}
	fs.End = min(max(fs.End, fs.Start), len(fr))
	fs.Start = min(fs.Start, fs.End)
	return &trace.Trace{Recs: trace.MakeRecs(cr...)}, &trace.Trace{Recs: trace.MakeRecs(fr...)}, cs, fs
}

// TestCompareRegionWithMatchesGraphsOnRandomTraces pins the one-pass
// comparison to the graph-based oracle on random trace pairs, including
// diverged and truncated faulty runs. Each clean graph serves two faulty
// spans, so a comparison cannot depend on the one before it.
func TestCompareRegionWithMatchesGraphsOnRandomTraces(t *testing.T) {
	var inputs, outputs int
	for seed := int64(1); seed <= 2000; seed++ {
		clean, faulty, cs, fs := randomComparePair(seed)
		g := Build(clean, cs)
		for _, f := range []struct {
			tr   *trace.Trace
			span trace.Span
		}{{faulty, fs}, {clean, cs}} {
			got := CompareRegionWith(g, f.tr, f.span)
			want := compareRegionGraphs(g, f.tr, f.span)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: CompareRegionWith = %+v\nwant %+v", seed, got, want)
			}
			inputs += len(got.CorruptedInputs)
			outputs += len(got.CorruptedOutputs)
		}
	}
	if inputs == 0 || outputs == 0 {
		t.Errorf("random pairs produced %d corrupted inputs and %d outputs; the generator no longer exercises both", inputs, outputs)
	}
}

// TestCompareRegionWithSharedGraph compares against one fresh clean graph
// from several goroutines at once, as parallel campaign workers do with a
// cached graph: the first comparisons race to derive the graph's comparison
// index, and every one must still match the oracle.
func TestCompareRegionWithSharedGraph(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		clean, faulty, cs, fs := randomComparePair(seed)
		want := compareRegionGraphs(Build(clean, cs), faulty, fs)
		g := Build(clean, cs)
		var wg sync.WaitGroup
		for range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if got := CompareRegionWith(g, faulty, fs); !reflect.DeepEqual(got, want) {
					t.Errorf("seed %d: concurrent CompareRegionWith = %+v, want %+v", seed, got, want)
				}
			}()
		}
		wg.Wait()
	}
}

// TestCompareRegionWithMatchesGraphsOnFixedCases covers the version rules
// one at a time: a write before a read (not an input), a location only read
// (its input value is also its final value), a location the faulty span
// never touches (skipped), and a read whose control flow diverged away.
func TestCompareRegionWithMatchesGraphsOnFixedCases(t *testing.T) {
	a, b, c := trace.MemLoc(1), trace.MemLoc(2), trace.MemLoc(3)
	r := trace.RegLoc(1, 0)
	f := ir.F64Word
	clean := &trace.Trace{Recs: trace.MakeRecs(
		trace.Rec{SID: 0, Op: ir.OpRegionEnter, RegionID: 0},
		trace.Rec{SID: 1, Op: ir.OpLoad, Typ: ir.F64, RegionID: -1, NSrc: 1, Src: [2]trace.Loc{a}, SrcVal: [2]ir.Word{f(1)}, Dst: r, DstVal: f(1)},
		trace.Rec{SID: 2, Op: ir.OpStore, Typ: ir.F64, RegionID: -1, NSrc: 1, Src: [2]trace.Loc{r}, SrcVal: [2]ir.Word{f(1)}, Dst: b, DstVal: f(1)},
		trace.Rec{SID: 3, Op: ir.OpLoad, Typ: ir.F64, RegionID: -1, NSrc: 1, Src: [2]trace.Loc{b}, SrcVal: [2]ir.Word{f(1)}, Dst: r, DstVal: f(1)},
		trace.Rec{SID: 4, Op: ir.OpLoad, Typ: ir.I64, RegionID: -1, NSrc: 1, Src: [2]trace.Loc{c}, SrcVal: [2]ir.Word{f(5)}, Dst: r, DstVal: f(5)},
		trace.Rec{SID: 5, Op: ir.OpRegionExit, RegionID: 0},
	)}
	cs := trace.Span{Start: 0, End: 6}
	g := Build(clean, cs)
	cases := []struct {
		name string
		body []trace.Rec
	}{
		{"same", nil},
		{"write-before-read", []trace.Rec{
			{SID: 2, Op: ir.OpStore, Typ: ir.F64, RegionID: -1, NSrc: 1, Src: [2]trace.Loc{r}, SrcVal: [2]ir.Word{f(9)}, Dst: a, DstVal: f(9)},
			{SID: 1, Op: ir.OpLoad, Typ: ir.F64, RegionID: -1, NSrc: 1, Src: [2]trace.Loc{a}, SrcVal: [2]ir.Word{f(9)}, Dst: r, DstVal: f(9)},
		}},
		{"read-only", []trace.Rec{
			{SID: 1, Op: ir.OpLoad, Typ: ir.F64, RegionID: -1, NSrc: 1, Src: [2]trace.Loc{b}, SrcVal: [2]ir.Word{f(7)}, Dst: r, DstVal: f(7)},
			{SID: 4, Op: ir.OpLoad, Typ: ir.F64, RegionID: -1, NSrc: 1, Src: [2]trace.Loc{c}, SrcVal: [2]ir.Word{f(6)}, Dst: r, DstVal: f(6)},
		}},
		{"untouched", []trace.Rec{
			{SID: 9, Op: ir.OpFAdd, Typ: ir.F64, RegionID: -1, NSrc: 2, Src: [2]trace.Loc{r, r}, SrcVal: [2]ir.Word{f(1), f(1)}, Dst: r, DstVal: f(2)},
		}},
		{"diverged", []trace.Rec{
			clean.Recs.At(1),
			{SID: 7, Op: ir.OpCondBr, Typ: ir.I64, RegionID: -1, NSrc: 1, Src: [2]trace.Loc{c}, SrcVal: [2]ir.Word{f(8)}},
		}},
	}
	for _, tc := range cases {
		recs := []trace.Rec{clean.Recs.At(0)}
		if tc.body == nil {
			for i := 1; i < clean.Recs.Len(); i++ {
				recs = append(recs, clean.Recs.At(i))
			}
		} else {
			recs = append(append(recs, tc.body...), clean.Recs.At(5))
		}
		faulty := &trace.Trace{Recs: trace.MakeRecs(recs...)}
		fs := trace.Span{Start: 0, End: len(recs)}
		got, want := CompareRegionWith(g, faulty, fs), compareRegionGraphs(g, faulty, fs)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: CompareRegionWith = %+v\nwant %+v", tc.name, got, want)
		}
	}
}

// TestCompareRegionWithMatchesGraphsOnRealFaults runs both comparisons on
// every region instance that real CG and MG faults touch.
func TestCompareRegionWithMatchesGraphsOnRealFaults(t *testing.T) {
	var spans, deltas, diverged int
	for _, name := range []string{"cg", "mg"} {
		app, _ := apps.Get(name)
		clean, err := app.CleanTrace(interp.TraceFull)
		if err != nil {
			t.Fatal(err)
		}
		cIdx := trace.NewSpanIndex(clean)
		graphs := map[trace.Span]*Graph{}
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
			res := acl.Analyze(faulty, clean)
			fIdx := trace.NewSpanIndex(faulty)
			for _, cs := range cIdx.Spans() {
				fs, ok := fIdx.Instance(cs.RegionID, cs.Instance)
				if !ok || !res.TouchesSpan(fs) {
					continue
				}
				g := graphs[cs]
				if g == nil {
					g = Build(clean, cs)
					graphs[cs] = g
				}
				got, want := CompareRegionWith(g, faulty, fs), compareRegionGraphs(g, faulty, fs)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %+v, region %d#%d: CompareRegionWith = %+v\nwant %+v", name, f, cs.RegionID, cs.Instance, got, want)
				}
				spans++
				deltas += len(got.CorruptedInputs) + len(got.CorruptedOutputs)
				if got.DivergedAt >= 0 {
					diverged++
				}
			}
		}
	}
	t.Logf("%d touched spans, %d corrupted locations, %d diverged", spans, deltas, diverged)
	if spans == 0 || deltas == 0 || diverged == 0 {
		t.Errorf("real faults touched %d spans with %d corrupted locations and %d divergences; expected all nonzero", spans, deltas, diverged)
	}
}
