package dddg

import (
	"strings"
	"testing"

	"fliptracker/internal/interp"
	"fliptracker/internal/ir"
	"fliptracker/internal/trace"
)

// buildRegionProg builds a program with one region that reads in[0..3],
// accumulates into acc, and writes out[0]; out[0] is read after the region.
func buildRegionProg(t *testing.T) (*ir.Program, *trace.Trace) {
	t.Helper()
	p := ir.NewProgram("regprog")
	in := p.AllocGlobal("in", 4, ir.F64)
	out := p.AllocGlobal("out", 1, ir.F64)
	sink := p.AllocGlobal("sink", 1, ir.F64)
	b := p.NewFunc("main", 0)
	for i := int64(0); i < 4; i++ {
		b.StoreGI(in, i, b.ConstF(float64(i)+1))
	}
	b.Region("sumreg", func() {
		acc := b.ConstF(0)
		b.ForI(0, 4, func(i ir.Reg) {
			b.BinTo(ir.OpFAdd, acc, acc, b.LoadG(in, i))
		})
		b.StoreGI(out, 0, acc)
	})
	// Read out[0] after the region so it is a true output variable.
	b.StoreGI(sink, 0, b.FMul(b.LoadGI(out, 0), b.ConstF(2)))
	b.Emit(ir.F64, b.LoadGI(sink, 0))
	b.RetVoid()
	b.Done()
	if err := p.Seal(); err != nil {
		t.Fatal(err)
	}
	m, err := interp.NewMachine(p)
	if err != nil {
		t.Fatal(err)
	}
	m.Mode = interp.TraceFull
	tr, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if tr.Status != trace.RunOK {
		t.Fatalf("run status %v", tr.Status)
	}
	return p, tr
}

func regionSpan(t *testing.T, p *ir.Program, tr *trace.Trace, name string, inst int) trace.Span {
	t.Helper()
	r, ok := p.RegionByName(name)
	if !ok {
		t.Fatalf("region %q missing", name)
	}
	s, ok := trace.NewSpanIndex(tr).Instance(int32(r.ID), inst)
	if !ok {
		t.Fatalf("region %q instance %d missing", name, inst)
	}
	return s
}

func TestBuildIdentifiesInputsAndOutputs(t *testing.T) {
	p, tr := buildRegionProg(t)
	span := regionSpan(t, p, tr, "sumreg", 0)
	g := Build(tr, span)

	if len(g.Nodes) == 0 || len(g.Edges) == 0 {
		t.Fatal("empty graph")
	}
	// The region's memory inputs must be exactly in[0..3].
	in, _ := p.GlobalByName("in")
	locs := g.InputMemLocs()
	if len(locs) != 4 {
		t.Fatalf("input mem locs = %d, want 4 (%v)", len(locs), locs)
	}
	for i, l := range locs {
		if l.Addr() != in.Addr+int64(i) {
			t.Errorf("input %d = %s", i, trace.Describe(l, p))
		}
	}
	// Written memory must be exactly out[0].
	out, _ := p.GlobalByName("out")
	w := g.WrittenMemLocs()
	if len(w) != 1 || w[0].Addr() != out.Addr {
		t.Fatalf("written locs = %v", w)
	}
	// out[0] must be recognized as a region output (read after the span).
	outs := g.OutputLocs(tr)
	if len(outs) != 1 || outs[0].Addr() != out.Addr {
		t.Fatalf("outputs = %v, want out[0]", outs)
	}
	// Final value of out[0] is 1+2+3+4 = 10.
	v, ok := g.FinalValue(trace.MemLoc(out.Addr))
	if !ok || v.Float() != 10 {
		t.Errorf("final out[0] = %v %v", v.Float(), ok)
	}
	// Roots include the 4 input cells.
	var extMem int
	for _, n := range g.Inputs() {
		if n.Loc.IsMem() {
			extMem++
		}
	}
	if extMem != 4 {
		t.Errorf("external memory roots = %d, want 4", extMem)
	}
	if len(g.Leaves()) == 0 {
		t.Error("graph has no leaves")
	}
}

func TestDiverged(t *testing.T) {
	p, tr := buildRegionProg(t)
	span := regionSpan(t, p, tr, "sumreg", 0)
	if d := Diverged(tr, span, tr, span); d != -1 {
		t.Errorf("identical spans diverged at %d", d)
	}
	// A shifted span must diverge quickly.
	shift := trace.Span{RegionID: span.RegionID, Start: span.Start + 1, End: span.End}
	if d := Diverged(tr, span, tr, shift); d < 0 {
		t.Error("shifted spans should diverge")
	}
}

func TestDOTOutput(t *testing.T) {
	p, tr := buildRegionProg(t)
	span := regionSpan(t, p, tr, "sumreg", 0)
	g := Build(tr, span)
	dot := g.DOT(p, "sumreg")
	for _, want := range []string{"digraph", "in[0]", "out[0]", "fadd", "->"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q", want)
		}
	}
}

func TestErrMag(t *testing.T) {
	cases := []struct {
		c, f float64
		want float64
	}{
		{10, 11, 0.1},
		{10, 10, 0},
		{-4, -2, 0.5},
	}
	for _, c := range cases {
		if got := ErrMag(ir.F64Word(c.c), ir.F64Word(c.f), ir.F64); got != c.want {
			t.Errorf("ErrMag(%v,%v) = %v, want %v", c.c, c.f, got, c.want)
		}
	}
	// Corrupted zero: infinite magnitude (Table II row 1).
	if got := ErrMag(ir.F64Word(0), ir.F64Word(5.9e-8), ir.F64); got == 0 || got < 1e10 {
		t.Errorf("ErrMag(0, eps) = %v, want +Inf", got)
	}
	// Integer comparison path.
	if got := ErrMag(ir.I64Word(100), ir.I64Word(150), ir.I64); got != 0.5 {
		t.Errorf("int ErrMag = %v, want 0.5", got)
	}
	// -0.0 vs +0.0 differ in bits but are numerically equal.
	if got := ErrMag(ir.F64Word(0), ir.F64Word(-0.0), ir.F64); got != 0 {
		t.Errorf("signed zero ErrMag = %v, want 0", got)
	}
}

func TestCompareRegionCase1MaskedInput(t *testing.T) {
	// The region computes out[0] = (in[0] >> 4) using integer shift, so a
	// low-bit corruption of in[0] is masked: Case 1 must hold.
	p := ir.NewProgram("mask")
	in := p.AllocGlobal("in", 1, ir.I64)
	out := p.AllocGlobal("out", 1, ir.I64)
	sink := p.AllocGlobal("sink", 1, ir.I64)
	b := p.NewFunc("main", 0)
	b.StoreGI(in, 0, b.ConstI(0x130))
	b.Region("shiftreg", func() {
		b.StoreGI(out, 0, b.LShr(b.LoadGI(in, 0), b.ConstI(4)))
	})
	b.StoreGI(sink, 0, b.LoadGI(out, 0))
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
		return tr
	}
	clean := run(nil)
	// Flip bit 1 of in[0] just as the region starts (at its RegionEnter
	// step), before the region's load executes.
	r, _ := p.RegionByName("shiftreg")
	cleanIx := trace.NewSpanIndex(clean)
	cs0, _ := cleanIx.Instance(int32(r.ID), 0)
	enterStep := clean.Recs.At(cs0.Start).Step
	faulty := run(&interp.Fault{Step: enterStep, Bit: 1, Kind: interp.FaultMem, Addr: in.Addr})

	cs, _ := cleanIx.Instance(int32(r.ID), 0)
	fs, _ := trace.NewSpanIndex(faulty).Instance(int32(r.ID), 0)
	cmp := CompareRegion(clean, cs, faulty, fs)
	if len(cmp.CorruptedInputs) != 1 {
		t.Fatalf("corrupted inputs = %d, want 1", len(cmp.CorruptedInputs))
	}
	if len(cmp.CorruptedOutputs) != 0 {
		t.Fatalf("corrupted outputs = %v, want none", cmp.CorruptedOutputs)
	}
	if !cmp.Case1 || cmp.Case2 || !cmp.Tolerant() {
		t.Errorf("Case1 = %v Case2 = %v, want Case1 only", cmp.Case1, cmp.Case2)
	}
	if cmp.DivergedAt != -1 {
		t.Errorf("control flow diverged at %d, want -1", cmp.DivergedAt)
	}
}

func TestCompareRegionCase2ErrorDiminished(t *testing.T) {
	// out[0] = in[0] * 0.001 + 999: a relative error on in[0] shrinks
	// dramatically relative to the output value. Case 2 must hold.
	p := ir.NewProgram("dimin")
	in := p.AllocGlobal("in", 1, ir.F64)
	out := p.AllocGlobal("out", 1, ir.F64)
	sink := p.AllocGlobal("sink", 1, ir.F64)
	b := p.NewFunc("main", 0)
	b.StoreGI(in, 0, b.ConstF(8))
	b.Region("dampreg", func() {
		v := b.FMul(b.LoadGI(in, 0), b.ConstF(0.001))
		b.StoreGI(out, 0, b.FAdd(v, b.ConstF(999)))
	})
	b.StoreGI(sink, 0, b.LoadGI(out, 0))
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
		return tr
	}
	clean := run(nil)
	// Flip mantissa bit 50 of in[0]=8.0 at region entry: sizeable input
	// error, tiny output error.
	r, _ := p.RegionByName("dampreg")
	cleanIx := trace.NewSpanIndex(clean)
	cs0, _ := cleanIx.Instance(int32(r.ID), 0)
	faulty := run(&interp.Fault{Step: clean.Recs.At(cs0.Start).Step, Bit: 50, Kind: interp.FaultMem, Addr: in.Addr})
	cs, _ := cleanIx.Instance(int32(r.ID), 0)
	fs, _ := trace.NewSpanIndex(faulty).Instance(int32(r.ID), 0)
	cmp := CompareRegion(clean, cs, faulty, fs)
	if len(cmp.CorruptedInputs) != 1 || len(cmp.CorruptedOutputs) != 1 {
		t.Fatalf("deltas: in=%d out=%d, want 1 and 1", len(cmp.CorruptedInputs), len(cmp.CorruptedOutputs))
	}
	if !cmp.Case2 || cmp.Case1 {
		t.Errorf("Case1=%v Case2=%v MaxIn=%g MaxOut=%g", cmp.Case1, cmp.Case2, cmp.MaxInputErr, cmp.MaxOutputErr)
	}
	if cmp.MaxOutputErr >= cmp.MaxInputErr {
		t.Errorf("output err %g not smaller than input err %g", cmp.MaxOutputErr, cmp.MaxInputErr)
	}
}

// TestCompareRegionWithReusesCleanGraph pins CompareRegionWith to
// CompareRegion: a prebuilt (cached) clean graph must yield the identical
// comparison, since the per-fault pipeline now builds each clean graph once.
func TestCompareRegionWithReusesCleanGraph(t *testing.T) {
	p, clean := buildRegionProg(t)
	cs := regionSpan(t, p, clean, "sumreg", 0)

	m, _ := interp.NewMachine(p)
	m.Mode = interp.TraceFull
	m.Fault = &interp.Fault{Step: clean.Recs.At(cs.Start).Step + 1, Bit: 40, Kind: interp.FaultDst}
	faulty, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	fs, ok := trace.NewSpanIndex(faulty).Instance(cs.RegionID, 0)
	if !ok {
		t.Fatal("faulty run lost the region instance")
	}

	want := CompareRegion(clean, cs, faulty, fs)
	gClean := Build(clean, cs)
	if gClean.Span() != cs {
		t.Fatal("graph does not remember its span")
	}
	got := CompareRegionWith(gClean, faulty, fs)
	if got.DivergedAt != want.DivergedAt || got.Case1 != want.Case1 || got.Case2 != want.Case2 ||
		got.MaxInputErr != want.MaxInputErr || got.MaxOutputErr != want.MaxOutputErr ||
		len(got.CorruptedInputs) != len(want.CorruptedInputs) ||
		len(got.CorruptedOutputs) != len(want.CorruptedOutputs) {
		t.Errorf("CompareRegionWith = %+v, want %+v", got, want)
	}
	// Reusing the same prebuilt graph for a second comparison is safe.
	again := CompareRegionWith(gClean, faulty, fs)
	if len(again.CorruptedInputs) != len(got.CorruptedInputs) || len(again.CorruptedOutputs) != len(got.CorruptedOutputs) {
		t.Error("second comparison against the cached graph differs")
	}
}
