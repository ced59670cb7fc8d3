package irstatic_test

import (
	"testing"

	"fliptracker/internal/interp"
	"fliptracker/internal/ir"
	"fliptracker/internal/irstatic"
)

// TestUnreachablePaddingRet checks that only reachable returns shape a
// callee's return kind. ir.Validate tolerates unreachable ret padding, so
// both callees below seal with one reachable and one dead return of the other
// kind:
//
//	val(x): ret x; ret      ; value-returning, void padding
//	void(x): ret; ret x     ; void, value padding
//	main:
//	  r0 = const 3
//	  r1 = call val(r0)     ; result discarded → benign (would be live if mixed)
//	  r2 = call void(r0)    ; no value returned → never fires (live if mixed)
//	  ret
func TestUnreachablePaddingRet(t *testing.T) {
	p := ir.NewProgram("padding")
	vb := p.NewFunc("val", 1)
	vb.Ret(vb.Arg(0))
	vb.RetVoid()
	vf := vb.Done()
	ub := p.NewFunc("void", 1)
	ub.RetVoid()
	ub.Ret(ub.Arg(0))
	uf := ub.Done()
	b := p.NewFunc("main", 0)
	a := b.ConstI(3)
	_ = b.Call("val", a)
	_ = b.Call("void", a)
	b.RetVoid()
	mf := b.Done()
	if err := p.Seal(); err != nil {
		t.Fatalf("seal: %v", err)
	}
	for _, f := range []*ir.Function{vf, uf} {
		if len(f.Code) != 2 || f.Code[1].Op != ir.OpRet {
			t.Fatalf("%s: code %v, want two rets", f.Name, f.Code)
		}
		if reach := f.Reachable(); !reach[0] || reach[1] {
			t.Fatalf("%s: reachable %v, want [true false]", f.Name, reach)
		}
	}
	an, err := irstatic.Analyze(p)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	want := map[int32]irstatic.Class{int32(vf.Index): irstatic.Benign, int32(uf.Index): irstatic.NeverFires}
	calls := 0
	for i := range mf.Code {
		in := &mf.Code[i]
		if in.Op != ir.OpCall {
			continue
		}
		calls++
		if got := an.ClassifyDst(mf.Base + i); got != want[in.Callee] {
			t.Errorf("call %s = %s, want %s", p.Funcs[in.Callee].Name, got, want[in.Callee])
		}
	}
	if calls != 2 {
		t.Fatalf("main has %d calls, want 2", calls)
	}
}

// buildClassify constructs main with one instance of every classification:
//
//	0: r0 = const 7          ; dead               → Benign
//	1: r1 = const 1          ; branch condition   → Live
//	2: condbr r1 @3 @5                            → NeverFires
//	3: r2 = const 10         ; emitted at join    → Live
//	4: br @7                                      → NeverFires
//	5: r2 = const 20                              → Live
//	6: br @7                                      → NeverFires
//	7: emit r2                                    → NeverFires
//	8: ret                                        → NeverFires
func buildClassify(t *testing.T) (*ir.Program, *ir.Function) {
	t.Helper()
	p := ir.NewProgram("classify")
	b := p.NewFunc("main", 0)
	b.ConstI(7)
	c := b.ConstI(1)
	r := b.NewReg()
	thenL, elseL, join := b.NewLabel(), b.NewLabel(), b.NewLabel()
	b.CondBr(c, thenL, elseL)
	b.Bind(thenL)
	b.ConstITo(r, 10)
	b.Br(join)
	b.Bind(elseL)
	b.ConstITo(r, 20)
	b.Br(join)
	b.Bind(join)
	b.Emit(ir.I64, r)
	b.RetVoid()
	f := b.Done()
	if err := p.Seal(); err != nil {
		t.Fatalf("seal: %v", err)
	}
	return p, f
}

func TestClassifyDst(t *testing.T) {
	p, f := buildClassify(t)
	an, err := irstatic.Analyze(p)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	want := []irstatic.Class{
		irstatic.Benign,     // dead const
		irstatic.Live,       // branch condition
		irstatic.NeverFires, // condbr
		irstatic.Live,       // emitted const (then)
		irstatic.NeverFires, // br
		irstatic.Live,       // emitted const (else)
		irstatic.NeverFires, // br
		irstatic.NeverFires, // emit
		irstatic.NeverFires, // ret
	}
	if len(f.Code) != len(want) {
		t.Fatalf("code length = %d, want %d", len(f.Code), len(want))
	}
	for i, w := range want {
		if got := an.ClassifyDst(f.Base + i); got != w {
			t.Errorf("ClassifyDst(%d: %s) = %s, want %s", i, f.Code[i].Op, got, w)
		}
	}
}

func TestClassifyRegAndMem(t *testing.T) {
	p, f := buildClassify(t)
	an, err := irstatic.Analyze(p)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	emitIdx := 7
	if f.Code[emitIdx].Op != ir.OpEmit {
		t.Fatalf("instr %d is %s, want emit", emitIdx, f.Code[emitIdx].Op)
	}
	emitted := f.Code[emitIdx].A
	if got := an.ClassifyReg(f.Base+emitIdx, emitted); got != irstatic.Live {
		t.Errorf("emitted reg before emit = %s, want live", got)
	}
	// r0 (the dead const's register) reaches nothing anywhere.
	if got := an.ClassifyReg(f.Base+emitIdx, 0); got != irstatic.Benign {
		t.Errorf("dead reg = %s, want benign", got)
	}
	if got := an.ClassifyReg(f.Base+emitIdx, ir.Reg(f.NumRegs)); got != irstatic.NeverFires {
		t.Errorf("out-of-range reg = %s, want never-fires", got)
	}
	// The fires rule admits no negative register either.
	if got := an.ClassifyReg(f.Base+emitIdx, -2); got != irstatic.NeverFires {
		t.Errorf("negative reg = %s, want never-fires", got)
	}

	pr, err := irstatic.NewPruner(an, []int32{int32(f.Base + emitIdx)})
	if err != nil {
		t.Fatal(err)
	}
	mem := func(addr int64) irstatic.Class {
		return pr.Classify(interp.Fault{Kind: interp.FaultMem, Addr: addr})
	}
	if got := mem(0); got != irstatic.Live {
		t.Errorf("in-range mem = %s, want live", got)
	}
	if got := mem(p.MemWords); got != irstatic.NeverFires {
		t.Errorf("out-of-range mem = %s, want never-fires", got)
	}
	if got := mem(-1); got != irstatic.NeverFires {
		t.Errorf("negative mem = %s, want never-fires", got)
	}
}

func TestClassifyMemoryAndDiv(t *testing.T) {
	p := ir.NewProgram("memdiv")
	g := p.AllocGlobal("g", 1, ir.I64)
	b := p.NewFunc("main", 0)
	v := b.ConstI(5)
	b.StoreGI(g, 0, v) // store value and address are sinks
	_ = b.LoadGI(g, 0) // loaded value unused: dst benign, address live
	x := b.ConstI(10)  // division operand: live (crash sink)
	y := b.ConstI(2)   // division operand: live
	_ = b.SDiv(x, y)   // quotient unused: benign
	b.RetVoid()
	f := b.Done()
	if err := p.Seal(); err != nil {
		t.Fatalf("seal: %v", err)
	}
	an, err := irstatic.Analyze(p)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	classOf := func(op ir.Opcode) []irstatic.Class {
		var out []irstatic.Class
		for i := range f.Code {
			if f.Code[i].Op == op {
				out = append(out, an.ClassifyDst(f.Base+i))
			}
		}
		return out
	}
	if got := classOf(ir.OpStore); len(got) != 1 || got[0] != irstatic.Live {
		t.Errorf("store = %v, want [live] (stored value is untracked memory)", got)
	}
	if got := classOf(ir.OpLoad); len(got) != 1 || got[0] != irstatic.Benign {
		t.Errorf("unused load = %v, want [benign]", got)
	}
	if got := classOf(ir.OpSDiv); len(got) != 1 || got[0] != irstatic.Benign {
		t.Errorf("unused sdiv = %v, want [benign]", got)
	}
	// The store's value const must be live.
	if got := an.ClassifyDst(f.Base + 0); got != irstatic.Live {
		t.Errorf("stored const = %s, want live", got)
	}
	// Both division operand consts are live through the crash sink.
	for i := range f.Code {
		in := &f.Code[i]
		if in.Op == ir.OpConst && (in.Dst == x || in.Dst == y) {
			if got := an.ClassifyDst(f.Base + i); got != irstatic.Live {
				t.Errorf("div operand const (instr %d) = %s, want live", i, got)
			}
		}
	}
}

// TestInterprocedural checks call summaries and return-value danger:
//
//	id(x): ret x
//	sq(x): r = mul x x; ret r
//	main:
//	  r0 = const 3
//	  r1 = call id(r0)   ; result emitted → id's return value is dangerous
//	  emit r1
//	  r2 = const 4
//	  r3 = call sq(r2)   ; result discarded → everything about sq is benign
//	  ret
func TestInterprocedural(t *testing.T) {
	p := ir.NewProgram("interproc")
	idb := p.NewFunc("id", 1)
	idb.Ret(idb.Arg(0))
	idf := idb.Done()
	sqb := p.NewFunc("sq", 1)
	sqb.Ret(sqb.Mul(sqb.Arg(0), sqb.Arg(0)))
	sqf := sqb.Done()
	b := p.NewFunc("main", 0)
	a3 := b.ConstI(3)
	r1 := b.Call("id", a3)
	b.Emit(ir.I64, r1)
	a4 := b.ConstI(4)
	_ = b.Call("sq", a4)
	b.RetVoid()
	mf := b.Done()
	if err := p.Seal(); err != nil {
		t.Fatalf("seal: %v", err)
	}
	an, err := irstatic.Analyze(p)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}

	if !an.RetDanger(idf.Index) {
		t.Errorf("id's return value should be dangerous (emitted by caller)")
	}
	if an.RetDanger(sqf.Index) {
		t.Errorf("sq's return value should be benign (discarded by caller)")
	}

	// sq's multiply feeds only a discarded return value.
	if got := an.ClassifyDst(sqf.Base + 0); got != irstatic.Benign {
		t.Errorf("sq's mul = %s, want benign", got)
	}

	for i := range mf.Code {
		in := &mf.Code[i]
		sid := mf.Base + i
		switch {
		case in.Op == ir.OpConst && in.Dst == a3:
			// Flows through id into the emitted result.
			if got := an.ClassifyDst(sid); got != irstatic.Live {
				t.Errorf("const 3 = %s, want live", an.ClassifyDst(sid))
			}
		case in.Op == ir.OpConst && in.Dst == a4:
			// Flows only into sq's discarded result.
			if got := an.ClassifyDst(sid); got != irstatic.Benign {
				t.Errorf("const 4 = %s, want benign", got)
			}
		case in.Op == ir.OpCall && in.Dst == r1:
			if got := an.ClassifyDst(sid); got != irstatic.Live {
				t.Errorf("call id = %s, want live", got)
			}
		case in.Op == ir.OpCall && in.Dst != r1:
			// The flip fires on sq's returned value, which nothing reads.
			if got := an.ClassifyDst(sid); got != irstatic.Benign {
				t.Errorf("call sq = %s, want benign", got)
			}
		}
	}
}

func TestAnalyzeUnsealed(t *testing.T) {
	p := ir.NewProgram("raw")
	if _, err := irstatic.Analyze(p); err == nil {
		t.Fatalf("Analyze should reject an unsealed program")
	}
}

func TestStatsAndDisasm(t *testing.T) {
	p, f := buildClassify(t)
	an, err := irstatic.Analyze(p)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	stats := an.Stats()
	if len(stats) != 1 || stats[0].Func != "main" {
		t.Fatalf("stats = %+v, want one entry for main", stats)
	}
	s := stats[0]
	if s.Total() != len(f.Code) {
		t.Errorf("stats total = %d, want %d", s.Total(), len(f.Code))
	}
	if s.Benign != 1 || s.Live != 3 || s.NeverFires != 5 {
		t.Errorf("stats = %+v, want 1 benign / 3 live / 5 never-fires", s)
	}
	out := an.Disassemble()
	for _, want := range []string{"; benign", "; live", "; never-fires"} {
		if !contains(out, want) {
			t.Errorf("annotated disasm missing %q:\n%s", want, out)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestPruner(t *testing.T) {
	p := ir.NewProgram("pruner")
	b := p.NewFunc("main", 0)
	b.ConstI(7) // step 0: dead → benign
	c := b.ConstI(1)
	b.Emit(ir.I64, c) // step 2: never fires
	b.RetVoid()
	b.Done()
	if err := p.Seal(); err != nil {
		t.Fatalf("seal: %v", err)
	}
	an, err := irstatic.Analyze(p)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	m, err := interp.NewMachine(p)
	if err != nil {
		t.Fatalf("machine: %v", err)
	}
	m.RecordSIDs = true
	if _, err := m.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	pr, err := irstatic.NewPruner(an, m.SIDLog())
	if err != nil {
		t.Fatalf("pruner: %v", err)
	}
	if len(pr.SIDs) != 4 {
		t.Fatalf("SID log = %v, want 4 entries", pr.SIDs)
	}
	cases := []struct {
		f    interp.Fault
		want irstatic.Class
	}{
		{interp.Fault{Step: 0, Kind: interp.FaultDst}, irstatic.Benign},
		{interp.Fault{Step: 1, Kind: interp.FaultDst}, irstatic.Live},
		{interp.Fault{Step: 2, Kind: interp.FaultDst}, irstatic.NeverFires},
		{interp.Fault{Step: 3, Kind: interp.FaultDst}, irstatic.NeverFires},
		{interp.Fault{Step: 99, Kind: interp.FaultDst}, irstatic.NeverFires},
		// At step 1 the flip in c is overwritten by c's own defining const;
		// just before the emit (step 2) it reaches the output.
		{interp.Fault{Step: 1, Kind: interp.FaultReg, Reg: c}, irstatic.Benign},
		{interp.Fault{Step: 2, Kind: interp.FaultReg, Reg: c}, irstatic.Live},
		{interp.Fault{Step: 1, Kind: interp.FaultReg, Reg: 77}, irstatic.NeverFires},
		{interp.Fault{Step: 1, Kind: interp.FaultMem, Addr: 0}, irstatic.Live},
		{interp.Fault{Step: 1, Kind: interp.FaultMem, Addr: 1 << 30}, irstatic.NeverFires},
	}
	for _, tc := range cases {
		if got := pr.Classify(tc.f); got != tc.want {
			t.Errorf("Classify(%+v) = %s, want %s", tc.f, got, tc.want)
		}
	}
	st := pr.StatsFor([]interp.Fault{cases[0].f, cases[1].f, cases[2].f})
	if st.Benign != 1 || st.Live != 1 || st.NeverFires != 1 || st.Total != 3 {
		t.Errorf("stats = %+v", st)
	}
	if r := st.Rate(); r < 0.66 || r > 0.67 {
		t.Errorf("rate = %v, want 2/3", r)
	}
	if (irstatic.PruneStats{}).Rate() != 0 {
		t.Errorf("empty rate should be 0")
	}
}
