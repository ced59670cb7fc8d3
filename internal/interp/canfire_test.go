package interp

import (
	"slices"
	"testing"

	"fliptracker/internal/ir"
)

// buildReturnShapes builds calls into a value-returning, a void and a
// mixed-return callee; the mixed one returns its argument when it is
// nonzero and nothing otherwise. Two more callees are padded with an
// unreachable return of the other kind, which ir.Validate tolerates; only
// the reachable return decides whether a call into them yields a value:
//
//	val(x): ret x
//	void(x): ret
//	mixed(x): condbr x, L1, L2; L1: ret x; L2: ret
//	valpad(x): ret x; ret   ; returns a value: a FaultDst at its call fires
//	voidpad(x): ret; ret x  ; returns void: a FaultDst at its call does not
//	main:
//	  one = const 1; zero = const 0
//	  a = call val(one); _ = call void(one)
//	  b = call mixed(one)   ; returns a value: a FaultDst here fires
//	  _ = call mixed(zero)  ; returns void: a FaultDst here does not
//	  _ = call valpad(one); _ = call voidpad(one)
//	  store g, b; emit a; ret
func buildReturnShapes(t *testing.T) *ir.Program {
	t.Helper()
	p := ir.NewProgram("returns")
	g := p.AllocGlobal("g", 1, ir.I64)
	vb := p.NewFunc("val", 1)
	vb.Ret(vb.Arg(0))
	vb.Done()
	ub := p.NewFunc("void", 1)
	ub.RetVoid()
	ub.Done()
	xb := p.NewFunc("mixed", 1)
	then, els := xb.NewLabel(), xb.NewLabel()
	xb.CondBr(xb.Arg(0), then, els)
	xb.Bind(then)
	xb.Ret(xb.Arg(0))
	xb.Bind(els)
	xb.RetVoid()
	xb.Done()
	vp := p.NewFunc("valpad", 1)
	vp.Ret(vp.Arg(0))
	vp.RetVoid()
	vp.Done()
	up := p.NewFunc("voidpad", 1)
	up.RetVoid()
	up.Ret(up.Arg(0))
	up.Done()
	b := p.NewFunc("main", 0)
	one, zero := b.ConstI(1), b.ConstI(0)
	a := b.Call("val", one)
	b.Call("void", one)
	c := b.Call("mixed", one)
	b.Call("mixed", zero)
	b.Call("valpad", one)
	b.Call("voidpad", one)
	b.StoreGI(g, 0, c)
	b.Emit(ir.I64, a)
	b.RetVoid()
	b.Done()
	if err := p.Seal(); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestCanFireMatchesDispatch: at every step of the fixture, a fault the fires
// rule rejects does not fire, and one it admits does, except a FaultDst on a
// call into the mixed-return callee, which fires only on the call whose
// callee returns a value. A FaultDst on a call into valpad fires and one
// into voidpad does not. Bits past 63, registers outside the frame and
// addresses outside memory never fire.
func TestCanFireMatchesDispatch(t *testing.T) {
	p := buildReturnShapes(t)
	rec := snapMachine(t, p)
	rec.RecordSIDs = true
	if _, err := rec.Run(); err != nil {
		t.Fatal(err)
	}
	sids := rec.SIDLog()
	mixed := p.FuncByName["mixed"].Index
	var mixedFired []bool
	callFired := map[string][]bool{} // FaultDst bit 3 at each call, by callee
	for step, sid := range sids {
		fn, off := p.FuncOf(int(sid))
		faults := []Fault{
			{Kind: FaultDst, Bit: 3},
			{Kind: FaultDst, Bit: 64},
			{Kind: FaultReg, Bit: 3, Reg: 0},
			{Kind: FaultReg, Bit: 3, Reg: -1},
			{Kind: FaultReg, Bit: 3, Reg: ir.Reg(fn.NumRegs)},
			{Kind: FaultMem, Bit: 3, Addr: p.MemWords - 1},
			{Kind: FaultMem, Bit: 3, Addr: p.MemWords},
		}
		for _, f := range faults {
			f.Step = uint64(step)
			m, _ := runDirect(t, p, TraceOff, &f)
			in := fn.Code[off]
			can := CanFire(p, int(sid), f)
			if f.Kind == FaultDst && f.Bit <= 63 && in.Op == ir.OpCall && int(in.Callee) == mixed {
				if !can {
					t.Errorf("step %d: CanFire rejects a call into a mixed-return callee", step)
				}
				mixedFired = append(mixedFired, m.FaultApplied)
				continue
			}
			if m.FaultApplied != can {
				t.Errorf("step %d (%s in %s): %v applied %v, CanFire %v", step, in.Op, fn.Name, &f, m.FaultApplied, can)
			}
			if f.Kind == FaultDst && f.Bit <= 63 && in.Op == ir.OpCall {
				callee := p.Funcs[in.Callee].Name
				callFired[callee] = append(callFired[callee], m.FaultApplied)
			}
		}
	}
	if want := []bool{true, false}; !slices.Equal(mixedFired, want) {
		t.Errorf("calls into the mixed-return callee fired %v, want %v", mixedFired, want)
	}
	for callee, want := range map[string][]bool{"valpad": {true}, "voidpad": {false}} {
		if got := callFired[callee]; !slices.Equal(got, want) {
			t.Errorf("calls into %s fired %v, want %v", callee, got, want)
		}
	}
}
