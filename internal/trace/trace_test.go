package trace

import (
	"math"
	"testing"
	"testing/quick"

	"fliptracker/internal/ir"
)

func TestLocEncodingRoundTrip(t *testing.T) {
	r := RegLoc(123456, 789)
	if r.Kind() != LocReg || r.Frame() != 123456 || r.Reg() != 789 {
		t.Errorf("reg loc round trip failed: %v %d %d", r.Kind(), r.Frame(), r.Reg())
	}
	m := MemLoc(987654321)
	if m.Kind() != LocMem || m.Addr() != 987654321 || !m.IsMem() {
		t.Errorf("mem loc round trip failed")
	}
	o := OutLoc(7)
	if o.Kind() != LocOut || o.OutIndex() != 7 {
		t.Errorf("out loc round trip failed")
	}
	var none Loc
	if none.Kind() != LocNone {
		t.Errorf("zero loc should be LocNone")
	}
}

func TestLocEncodingProperty(t *testing.T) {
	f := func(frame uint32, reg uint16, addr uint32) bool {
		r := RegLoc(uint64(frame), ir.Reg(reg))
		m := MemLoc(int64(addr))
		return r.Kind() == LocReg && r.Frame() == uint64(frame) &&
			r.Reg() == ir.Reg(reg) &&
			m.Kind() == LocMem && m.Addr() == int64(addr) &&
			r != m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLocStrings(t *testing.T) {
	if s := RegLoc(3, 4).String(); s != "f3:r4" {
		t.Errorf("reg string = %q", s)
	}
	if s := MemLoc(10).String(); s != "mem[10]" {
		t.Errorf("mem string = %q", s)
	}
	if s := OutLoc(2).String(); s != "out[2]" {
		t.Errorf("out string = %q", s)
	}
	p := ir.NewProgram("t")
	g := p.AllocGlobal("u", 16, ir.F64)
	if s := Describe(MemLoc(g.Addr+5), p); s != "u[5]" {
		t.Errorf("Describe = %q, want u[5]", s)
	}
	if s := Describe(RegLoc(0, 1), p); s != "f0:r1" {
		t.Errorf("Describe reg = %q", s)
	}
}

func TestNegativeRegLocIsZero(t *testing.T) {
	if RegLoc(1, ir.NoReg) != 0 {
		t.Error("NoReg should map to the zero Loc")
	}
}

func markers(ids ...int32) Recs {
	var recs Recs
	for i, id := range ids {
		op := ir.OpRegionEnter
		if id < 0 {
			op = ir.OpRegionExit
			id = -id - 1
		}
		recs.Append(Rec{SID: int32(i), Op: op, RegionID: id})
	}
	return recs
}

func TestSplitRegionsSimple(t *testing.T) {
	// enter0 exit0 enter1 exit1 enter0 exit0  (exit encoded as -id-1)
	tr := &Trace{Recs: markers(0, -1, 1, -2, 0, -1)}
	spans := tr.SplitRegions()
	if len(spans) != 3 {
		t.Fatalf("spans = %d, want 3", len(spans))
	}
	if spans[0].RegionID != 0 || spans[0].Instance != 0 || spans[0].Start != 0 || spans[0].End != 2 {
		t.Errorf("span0 = %+v", spans[0])
	}
	if spans[1].RegionID != 1 || spans[1].Instance != 0 {
		t.Errorf("span1 = %+v", spans[1])
	}
	if spans[2].RegionID != 0 || spans[2].Instance != 1 {
		t.Errorf("span2 = %+v", spans[2])
	}
	if spans[2].Len() != 2 {
		t.Errorf("span2 len = %d", spans[2].Len())
	}
}

func TestSplitRegionsNested(t *testing.T) {
	// Main loop region 0 containing two instances of region 1.
	tr := &Trace{Recs: markers(0, 1, -2, 1, -2, -1)}
	spans := tr.SplitRegions()
	if len(spans) != 3 {
		t.Fatalf("spans = %d, want 3", len(spans))
	}
	ix := NewSpanIndex(tr)
	inner := ix.Instances(1)
	if len(inner) != 2 {
		t.Fatalf("inner instances = %d", len(inner))
	}
	outer, ok := ix.Instance(0, 0)
	if !ok || outer.Start != 0 || outer.End != 6 {
		t.Errorf("outer span = %+v %v", outer, ok)
	}
	if _, ok := ix.Instance(0, 5); ok {
		t.Error("instance 5 should not exist")
	}
}

func TestSplitRegionsTruncatedByCrash(t *testing.T) {
	// A crash leaves region 0 open; span must close at trace end.
	recs := markers(0)
	recs.Append(Rec{Op: ir.OpFAdd, RegionID: -1})
	tr := &Trace{Recs: recs}
	spans := tr.SplitRegions()
	if len(spans) != 1 || spans[0].End != 2 {
		t.Fatalf("spans = %+v", spans)
	}
}

func TestSplitRegionsStrayExit(t *testing.T) {
	tr := &Trace{Recs: markers(-1, 0, -1)}
	spans := tr.SplitRegions()
	if len(spans) != 1 {
		t.Fatalf("stray exit mishandled: %+v", spans)
	}
}

func TestOutValFloat(t *testing.T) {
	if (OutVal{Val: ir.I64Word(-3), Typ: ir.I64}).Float() != -3 {
		t.Error("int output conversion wrong")
	}
	if (OutVal{Val: ir.F64Word(math.Pi), Typ: ir.F64}).Float() != math.Pi {
		t.Error("float output conversion wrong")
	}
}

func TestRunStatusStrings(t *testing.T) {
	if RunOK.String() != "ok" || RunCrashed.String() != "crashed" || RunHang.String() != "hang" {
		t.Error("status strings wrong")
	}
	if RunStatus(9).String() == "" {
		t.Error("unknown status should stringify")
	}
}

func TestRecString(t *testing.T) {
	r := Rec{SID: 5, Op: ir.OpCondBr, NSrc: 1, Src: [2]Loc{RegLoc(0, 1)}, Taken: true}
	if s := r.String(); s == "" {
		t.Error("empty Rec string")
	}
	r2 := Rec{SID: 6, Op: ir.OpFAdd, Dst: RegLoc(0, 2), DstVal: ir.F64Word(1), NSrc: 2}
	if !r2.HasDst() {
		t.Error("HasDst wrong")
	}
	if r2.String() == "" {
		t.Error("empty Rec string")
	}
}

func TestSpanIndexMatchesSplitRegions(t *testing.T) {
	// Nested regions plus a truncated (crash-closed) instance.
	tr := &Trace{Recs: markers(0, 1, -2, 1, -2, -1, 0, 1)}
	ix := NewSpanIndex(tr)
	want := tr.SplitRegions()
	got := ix.Spans()
	if len(got) != len(want) {
		t.Fatalf("index has %d spans, SplitRegions %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	for _, id := range []int32{0, 1, 7} {
		var wi []Span
		for _, s := range want {
			if s.RegionID == id {
				wi = append(wi, s)
			}
		}
		gi := ix.Instances(id)
		if len(wi) != len(gi) {
			t.Fatalf("region %d: %d instances, want %d", id, len(gi), len(wi))
		}
		for n := range wi {
			if gi[n] != wi[n] {
				t.Errorf("region %d instance %d = %+v, want %+v", id, n, gi[n], wi[n])
			}
			s, ok := ix.Instance(id, n)
			if !ok || s != wi[n] {
				t.Errorf("Instance(%d, %d) = %+v %v, want %+v", id, n, s, ok, wi[n])
			}
		}
	}
	if _, ok := ix.Instance(0, 99); ok {
		t.Error("absent instance should miss")
	}
	if _, ok := ix.Instance(42, 0); ok {
		t.Error("absent region should miss")
	}
}
