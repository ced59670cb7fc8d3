package ir

import (
	"strings"
	"testing"
)

func TestSemanticUnreachableCode(t *testing.T) {
	p := NewProgram("unreach")
	b := p.NewFunc("main", 0)
	end := b.NewLabel()
	b.Br(end)
	b.ConstI(42) // skipped over: dead compute
	b.Bind(end)
	b.RetVoid()
	b.Done()
	err := p.Seal()
	if err == nil || !strings.Contains(err.Error(), "unreachable") {
		t.Fatalf("Seal = %v, want unreachable-code error", err)
	}
}

func TestSemanticToleratesBuilderPadding(t *testing.T) {
	// An IfElse arm that returns early leaves the builder's join branch
	// unreachable; that padding must not fail validation.
	p := NewProgram("padding")
	b := p.NewFunc("main", 0)
	c := b.ConstI(1)
	b.IfElse(c, func() { b.RetVoid() }, func() {})
	b.RetVoid()
	b.Done()
	if err := p.Seal(); err != nil {
		t.Fatalf("Seal = %v, want builder padding tolerated", err)
	}
}

// TestSemanticUnreachablePaddingRet: a callee padded with an unreachable
// return of the other kind seals, Reachable marks the padding dead, and
// Returns sees only the reachable return.
func TestSemanticUnreachablePaddingRet(t *testing.T) {
	p := NewProgram("padding")
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
	b.Call("val", a)
	b.Call("void", a)
	b.RetVoid()
	b.Done()
	if err := p.Seal(); err != nil {
		t.Fatalf("Seal = %v, want unreachable ret padding tolerated", err)
	}
	for _, f := range []*Function{vf, uf} {
		if len(f.Code) != 2 || f.Code[1].Op != OpRet {
			t.Fatalf("%s: code %v, want two rets", f.Name, f.Code)
		}
		if reach := f.Reachable(); !reach[0] || reach[1] {
			t.Fatalf("%s: reachable %v, want [true false]", f.Name, reach)
		}
	}
	if value, void := vf.Returns(); !value || void {
		t.Errorf("val: Returns() = %v, %v, want true, false", value, void)
	}
	if value, void := uf.Returns(); value || !void {
		t.Errorf("void: Returns() = %v, %v, want false, true", value, void)
	}
}

func TestSemanticReadBeforeAssignment(t *testing.T) {
	p := NewProgram("defuse")
	b := p.NewFunc("main", 0)
	c := b.ConstI(1)
	r := b.NewReg()
	b.If(c, func() { b.ConstITo(r, 5) })
	b.Emit(I64, r) // unassigned when the If is not taken
	b.RetVoid()
	b.Done()
	err := p.Seal()
	if err == nil || !strings.Contains(err.Error(), "before assignment") {
		t.Fatalf("Seal = %v, want read-before-assignment error", err)
	}
}

func TestSemanticAssignedOnAllPaths(t *testing.T) {
	p := NewProgram("bothpaths")
	b := p.NewFunc("main", 0)
	c := b.ConstI(1)
	r := b.NewReg()
	b.IfElse(c, func() { b.ConstITo(r, 5) }, func() { b.ConstITo(r, 6) })
	b.Emit(I64, r)
	b.RetVoid()
	b.Done()
	if err := p.Seal(); err != nil {
		t.Fatalf("Seal = %v, want assignment on both arms accepted", err)
	}
}

func TestSemanticInconsistentRegionDepth(t *testing.T) {
	p := NewProgram("regiondepth")
	rid := int64(p.AddRegion("r", false))
	b := p.NewFunc("main", 0)
	b.RetVoid()
	f := b.Done()
	// Hand-crafted: the then-path enters the region, the else-path does not,
	// and they merge at the exit. Linearly the markers balance (the old
	// check passed this); across paths the depth diverges.
	f.Code = []Instr{
		{Op: OpConst, Type: I64, Dst: 0, A: NoReg, B: NoReg, Imm: I64Word(1)},
		{Op: OpCondBr, Dst: NoReg, A: 0, B: NoReg, Imm: I64Word(2), Imm2: I64Word(3)},
		{Op: OpRegionEnter, Dst: NoReg, A: NoReg, B: NoReg, Imm: I64Word(rid)},
		{Op: OpRegionExit, Dst: NoReg, A: NoReg, B: NoReg, Imm: I64Word(rid)},
		{Op: OpRet, Dst: NoReg, A: NoReg, B: NoReg},
	}
	f.NumRegs = 1
	err := p.Seal()
	if err == nil || !strings.Contains(err.Error(), "region") {
		t.Fatalf("Seal = %v, want branch-inconsistent region error", err)
	}
}

func TestSemanticReturnInsideRegion(t *testing.T) {
	p := NewProgram("retinregion")
	rid := int64(p.AddRegion("r", false))
	b := p.NewFunc("main", 0)
	b.RetVoid()
	f := b.Done()
	// One path returns while still inside the region; markers balance
	// linearly and nothing is unreachable.
	f.Code = []Instr{
		{Op: OpRegionEnter, Dst: NoReg, A: NoReg, B: NoReg, Imm: I64Word(rid)},
		{Op: OpConst, Type: I64, Dst: 0, A: NoReg, B: NoReg, Imm: I64Word(1)},
		{Op: OpCondBr, Dst: NoReg, A: 0, B: NoReg, Imm: I64Word(3), Imm2: I64Word(4)},
		{Op: OpRet, Dst: NoReg, A: NoReg, B: NoReg},
		{Op: OpRegionExit, Dst: NoReg, A: NoReg, B: NoReg, Imm: I64Word(rid)},
		{Op: OpRet, Dst: NoReg, A: NoReg, B: NoReg},
	}
	f.NumRegs = 1
	err := p.Seal()
	if err == nil || !strings.Contains(err.Error(), "return inside region") {
		t.Fatalf("Seal = %v, want return-inside-region error", err)
	}
}
