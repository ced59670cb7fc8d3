package acl

import (
	"testing"

	"fliptracker/internal/dddg"
	"fliptracker/internal/interp"
	"fliptracker/internal/ir"
	"fliptracker/internal/trace"
)

// fig3Traces builds the exact example of the paper's Figure 3 as synthetic
// clean/faulty traces:
//
//	instr 1: write Loc_1          <- fault corrupts Loc_1 here
//	instr 2: unrelated write
//	instr 3: Loc_2 <- f(Loc_1)    (error propagates)
//	instr 4: unrelated write
//	instr 5: Loc_1 <- clean const (Loc_1 dies by overwrite)
//	instr 6: Loc_2 <- clean const (Loc_2 dies by overwrite)
//
// Expected alive-corrupted-location counts: 1 1 2 2 1 0.
func fig3Traces() (clean, faulty *trace.Trace, loc1, loc2 trace.Loc) {
	loc1 = trace.MemLoc(101)
	loc2 = trace.MemLoc(102)
	loc3 := trace.MemLoc(103)
	loc5 := trace.MemLoc(105)
	mk := func(v1, v2 float64) *trace.Trace {
		return &trace.Trace{
			ProgName: "fig3",
			Status:   trace.RunOK,
			Recs: trace.MakeRecs([]trace.Rec{
				{SID: 1, Op: ir.OpStore, Typ: ir.F64, RegionID: -1, Dst: loc1, DstVal: ir.F64Word(v1)},
				{SID: 2, Op: ir.OpStore, Typ: ir.F64, RegionID: -1, Dst: loc3, DstVal: ir.F64Word(5)},
				{SID: 3, Op: ir.OpStore, Typ: ir.F64, RegionID: -1, Dst: loc2, DstVal: ir.F64Word(v2),
					NSrc: 1, Src: [2]trace.Loc{loc1}, SrcVal: [2]ir.Word{ir.F64Word(v1)}},
				{SID: 4, Op: ir.OpStore, Typ: ir.F64, RegionID: -1, Dst: loc5, DstVal: ir.F64Word(6)},
				{SID: 5, Op: ir.OpStore, Typ: ir.F64, RegionID: -1, Dst: loc1, DstVal: ir.F64Word(7)},
				{SID: 6, Op: ir.OpStore, Typ: ir.F64, RegionID: -1, Dst: loc2, DstVal: ir.F64Word(3)},
			}...),
		}
	}
	return mk(1, 10), mk(2, 20), loc1, loc2
}

func TestFigure3Example(t *testing.T) {
	clean, faulty, loc1, loc2 := fig3Traces()
	res := Analyze(faulty, clean)

	want := []int32{1, 1, 2, 2, 1, 0}
	if len(res.Series) != len(want) {
		t.Fatalf("series length %d, want %d", len(res.Series), len(want))
	}
	for i, w := range want {
		if res.Series[i] != w {
			t.Errorf("ACL after instr %d = %d, want %d (series %v)", i+1, res.Series[i], w, res.Series)
		}
	}
	if res.InjectionIndex != 0 {
		t.Errorf("injection index = %d, want 0", res.InjectionIndex)
	}
	if res.DivergenceIndex != -1 {
		t.Errorf("divergence = %d, want -1", res.DivergenceIndex)
	}
	if res.Peak != 2 {
		t.Errorf("peak = %d, want 2", res.Peak)
	}
	// Events: Loc_1 corrupted@0 and dead-overwrite@4; Loc_2 corrupted@2
	// and dead-overwrite@5.
	has := func(k EventKind, loc trace.Loc, idx int) bool {
		for _, e := range res.Events {
			if e.Kind == k && e.Loc == loc && e.RecIndex == idx {
				return true
			}
		}
		return false
	}
	if !has(Corrupted, loc1, 0) || !has(DeadOverwrite, loc1, 4) {
		t.Errorf("Loc_1 lifecycle wrong: %+v", res.Events)
	}
	if !has(Corrupted, loc2, 2) || !has(DeadOverwrite, loc2, 5) {
		t.Errorf("Loc_2 lifecycle wrong: %+v", res.Events)
	}
	if len(res.Intervals) != 2 {
		t.Errorf("intervals = %d, want 2", len(res.Intervals))
	}
	for _, iv := range res.Intervals {
		if !iv.ByOverwrite {
			t.Errorf("interval %+v should die by overwrite", iv)
		}
	}
}

func TestDeadUnusedLiveness(t *testing.T) {
	// A corrupted location read once and never overwritten: alive only
	// until its last (and only) use.
	loc1 := trace.MemLoc(201)
	loc2 := trace.MemLoc(202)
	mk := func(v float64) *trace.Trace {
		return &trace.Trace{Recs: trace.MakeRecs([]trace.Rec{
			{SID: 1, Op: ir.OpStore, Typ: ir.F64, RegionID: -1, Dst: loc1, DstVal: ir.F64Word(v)},
			{SID: 2, Op: ir.OpStore, Typ: ir.F64, RegionID: -1, Dst: loc2, DstVal: ir.F64Word(v * 2),
				NSrc: 1, Src: [2]trace.Loc{loc1}, SrcVal: [2]ir.Word{ir.F64Word(v)}},
			{SID: 3, Op: ir.OpStore, Typ: ir.F64, RegionID: -1, Dst: trace.MemLoc(203), DstVal: ir.F64Word(1)},
			{SID: 4, Op: ir.OpStore, Typ: ir.F64, RegionID: -1, Dst: trace.MemLoc(204), DstVal: ir.F64Word(1)},
		}...)}
	}
	res := Analyze(mk(9), mk(1))
	// loc1 corrupted at 0, last used at 1 -> alive 0..1; loc2 corrupted at
	// 1, never used -> dead on arrival.
	want := []int32{1, 2, 0, 0}
	for i, w := range want {
		if res.Series[i] != w {
			t.Errorf("series[%d] = %d, want %d (%v)", i, res.Series[i], w, res.Series)
		}
	}
	var unused int
	for _, e := range res.Events {
		if e.Kind == DeadUnused {
			unused++
		}
	}
	if unused != 2 {
		t.Errorf("dead-unused events = %d, want 2", unused)
	}
}

func TestMaskedOperationEvent(t *testing.T) {
	// A tainted source producing the correct destination value must emit a
	// Masked event and must not taint the destination.
	locIn := trace.MemLoc(301)
	locOut := trace.MemLoc(302)
	mk := func(in float64) *trace.Trace {
		return &trace.Trace{Recs: trace.MakeRecs([]trace.Rec{
			{SID: 1, Op: ir.OpStore, Typ: ir.F64, RegionID: -1, Dst: locIn, DstVal: ir.F64Word(in)},
			// Masking op: regardless of input, writes 4 (e.g. a shift).
			{SID: 2, Op: ir.OpLShr, Typ: ir.I64, RegionID: -1, Dst: locOut, DstVal: ir.I64Word(4),
				NSrc: 1, Src: [2]trace.Loc{locIn}, SrcVal: [2]ir.Word{ir.F64Word(in)}},
			{SID: 3, Op: ir.OpStore, Typ: ir.F64, RegionID: -1, Dst: trace.MemLoc(303), DstVal: ir.F64Word(0),
				NSrc: 1, Src: [2]trace.Loc{locOut}, SrcVal: [2]ir.Word{ir.I64Word(4)}},
		}...)}
	}
	res := Analyze(mk(64.5), mk(64))
	var masked bool
	for _, e := range res.Events {
		if e.Kind == Masked && e.RecIndex == 1 {
			masked = true
		}
		if e.Kind == Corrupted && e.Loc == locOut {
			t.Error("masked destination must not be tainted")
		}
	}
	if !masked {
		t.Errorf("no Masked event: %+v", res.Events)
	}
}

func TestNoFaultMeansEmptyResult(t *testing.T) {
	clean, _, _, _ := fig3Traces()
	res := Analyze(clean, clean)
	if res.InjectionIndex != -1 || res.Peak != 0 || len(res.Intervals) != 0 {
		t.Errorf("identical traces should produce empty analysis: %+v", res)
	}
	for _, v := range res.Series {
		if v != 0 {
			t.Errorf("series should be all zero: %v", res.Series)
		}
	}
}

func TestDivergenceFallsBackToConservativeTaint(t *testing.T) {
	locA := trace.MemLoc(401)
	locB := trace.MemLoc(402)
	clean := &trace.Trace{Recs: trace.MakeRecs([]trace.Rec{
		{SID: 1, Op: ir.OpStore, Typ: ir.F64, RegionID: -1, Dst: locA, DstVal: ir.F64Word(1)},
		{SID: 2, Op: ir.OpStore, Typ: ir.F64, RegionID: -1, Dst: locB, DstVal: ir.F64Word(2)},
	}...)}
	faulty := &trace.Trace{Recs: trace.MakeRecs([]trace.Rec{
		{SID: 1, Op: ir.OpStore, Typ: ir.F64, RegionID: -1, Dst: locA, DstVal: ir.F64Word(9)},
		// Different SID: control flow diverged.
		{SID: 7, Op: ir.OpStore, Typ: ir.F64, RegionID: -1, Dst: locB, DstVal: ir.F64Word(2),
			NSrc: 1, Src: [2]trace.Loc{locA}, SrcVal: [2]ir.Word{ir.F64Word(9)}},
		{SID: 8, Op: ir.OpStore, Typ: ir.F64, RegionID: -1, Dst: trace.MemLoc(403), DstVal: ir.F64Word(0),
			NSrc: 1, Src: [2]trace.Loc{locB}, SrcVal: [2]ir.Word{ir.F64Word(2)}},
	}...)}
	res := Analyze(faulty, clean)
	if res.DivergenceIndex != 1 {
		t.Fatalf("divergence = %d, want 1", res.DivergenceIndex)
	}
	// After divergence, conservative taint: locB gets tainted through locA
	// even though its value matches.
	var locBTainted bool
	for _, e := range res.Events {
		if e.Kind == Corrupted && e.Loc == locB {
			locBTainted = true
		}
	}
	if !locBTainted {
		t.Error("conservative taint should propagate through locA -> locB after divergence")
	}
}

func TestEndToEndWithInterpreter(t *testing.T) {
	// Real program: inject into the accumulator mid-sum, watch the ACL
	// series rise and then fall when out is overwritten by later stores.
	p := ir.NewProgram("e2e")
	a := p.AllocGlobal("a", 8, ir.F64)
	out := p.AllocGlobal("out", 1, ir.F64)
	b := p.NewFunc("main", 0)
	for i := int64(0); i < 8; i++ {
		b.StoreGI(a, i, b.ConstF(float64(i)*0.5))
	}
	acc := b.ConstF(0)
	b.ForI(0, 8, func(i ir.Reg) {
		b.BinTo(ir.OpFAdd, acc, acc, b.LoadG(a, i))
	})
	b.StoreGI(out, 0, acc)
	b.Emit(ir.F64, b.LoadGI(out, 0))
	b.RetVoid()
	b.Done()
	if err := p.Seal(); err != nil {
		t.Fatal(err)
	}
	run := func(f *interp.Fault) *trace.Trace {
		m, _ := interp.NewMachine(p)
		m.Mode = interp.TraceFull
		m.Fault = f
		tr, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		if tr.Status != trace.RunOK {
			t.Fatalf("status %v", tr.Status)
		}
		return tr
	}
	clean := run(nil)
	// Target the 4th dynamic fadd (the accumulator update) precisely.
	var faddStep uint64
	nf := 0
	for i := 0; i < clean.Recs.Len(); i++ {
		if clean.Recs.At(i).Op == ir.OpFAdd {
			nf++
			if nf == 4 {
				faddStep = clean.Recs.At(i).Step
				break
			}
		}
	}
	if nf != 4 {
		t.Fatal("could not find 4th fadd")
	}
	faulty := run(&interp.Fault{Step: faddStep, Bit: 40, Kind: interp.FaultDst})
	res := Analyze(faulty, clean)
	if res.InjectionIndex < 0 {
		t.Fatal("injection not detected")
	}
	if res.Peak < 1 {
		t.Fatalf("peak = %d, want >= 1", res.Peak)
	}
	for i, v := range res.Series {
		if v < 0 {
			t.Fatalf("negative ACL at %d: %d", i, v)
		}
	}
}

func TestTrackLocationErrorMagnitude(t *testing.T) {
	clean, faulty, _, loc2 := fig3Traces()
	pts := TrackLocation(faulty, clean, loc2, ir.F64, dddg.ErrMag)
	if len(pts) != 2 {
		t.Fatalf("points = %d, want 2", len(pts))
	}
	if pts[0].ErrMag != 1.0 { // 10 -> 20: |10-20|/10
		t.Errorf("first mag = %v, want 1.0", pts[0].ErrMag)
	}
	if pts[1].ErrMag != 0 { // both write clean 3
		t.Errorf("second mag = %v, want 0", pts[1].ErrMag)
	}
}

func TestSeriesSpanHelpers(t *testing.T) {
	clean, faulty, _, _ := fig3Traces()
	res := Analyze(faulty, clean)
	s := trace.Span{Start: 2, End: 6}
	sub := res.SeriesInSpan(s)
	if len(sub) != 4 || sub[0] != 2 || sub[3] != 0 {
		t.Errorf("SeriesInSpan = %v", sub)
	}
	if d := res.DropWithinSpan(s); d != 2 {
		t.Errorf("DropWithinSpan = %d, want 2", d)
	}
	if got := res.SeriesInSpan(trace.Span{Start: 99, End: 100}); got != nil {
		t.Errorf("out-of-range span should be nil, got %v", got)
	}
	if res.Peak != 2 {
		t.Errorf("Peak = %d", res.Peak)
	}
}

func TestEventKindStrings(t *testing.T) {
	for _, k := range []EventKind{Corrupted, DeadOverwrite, DeadUnused, Masked} {
		if k.String() == "" {
			t.Errorf("empty string for kind %d", k)
		}
	}
	if EventKind(99).String() == "" {
		t.Error("unknown kind should stringify")
	}
}

func TestTouchesSpan(t *testing.T) {
	clean, faulty, _, _ := fig3Traces()
	res := Analyze(faulty, clean)
	if res.InjectionIndex < 0 || len(res.Intervals) == 0 {
		t.Fatalf("fig3 fixture produced no corruption: %+v", res)
	}
	iv := res.Intervals[0]
	if !res.TouchesSpan(trace.Span{Start: iv.Begin, End: iv.Begin + 1}) {
		t.Error("span overlapping an interval should be touched")
	}
	if !res.TouchesSpan(trace.Span{Start: res.InjectionIndex, End: res.InjectionIndex + 1}) {
		t.Error("span containing the injection should be touched")
	}
	end := len(res.Series)
	if res.TouchesSpan(trace.Span{Start: end + 10, End: end + 20}) {
		t.Error("span past the trace should not be touched")
	}
	// A clean run touches nothing.
	none := Analyze(clean, clean)
	if none.TouchesSpan(trace.Span{Start: 0, End: clean.Recs.Len()}) {
		t.Error("fault-free analysis should touch no span")
	}
}
