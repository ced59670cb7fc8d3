package ir

import (
	"strings"
	"testing"
)

func TestSealDecodesLongestFusedSequence(t *testing.T) {
	p := NewProgram("t")
	g := p.AllocGlobal("g", 4, I64)
	b := p.NewFunc("main", 0)
	i := b.ConstI(1)
	x := b.LoadG(g, i)         // const; add; load
	y := b.Add(x, b.ConstI(2)) // const; add
	b.StoreG(g, i, y)          // const; add; store
	b.Emit(I64, y)
	b.RetVoid()
	f := b.Done()
	if err := p.Seal(); err != nil {
		t.Fatal(err)
	}
	want := []Opcode{OpConst, OpFuseConstAddLoad, OpAdd, OpLoad, OpFuseConstAdd, OpAdd,
		OpFuseConstAddStore, OpAdd, OpStore, OpEmit, OpRet}
	if len(f.Dispatch) != len(f.Code) {
		t.Fatalf("%d dispatch codes for %d instructions", len(f.Dispatch), len(f.Code))
	}
	for k, op := range want {
		if f.Dispatch[k] != op {
			t.Errorf("Dispatch[%d] = %s, want %s (code %s)", k, f.Dispatch[k], op, f.Code[k])
		}
	}
}

func TestFusedCodes(t *testing.T) {
	for op := Opcode(opcodeCount); op < fusedEnd; op++ {
		seq := op.Fused()
		if len(seq) < 2 {
			t.Errorf("%d: sequence %v", op, seq)
		}
		if name := op.String(); !strings.Contains(name, "+") {
			t.Errorf("fused code named %q", name)
		}
	}
	for _, op := range []Opcode{OpNop, OpAdd, OpRegionExit, fusedEnd, 255} {
		if op.Fused() != nil {
			t.Errorf("%s has a fused sequence", op)
		}
	}
}

func TestValidateRejectsFusedCodes(t *testing.T) {
	p := NewProgram("t")
	b := p.NewFunc("main", 0)
	b.emit(Instr{Op: OpFuseConstAdd, Type: I64, Dst: 0, A: NoReg, B: NoReg})
	b.emit(Instr{Op: OpRet, Dst: NoReg, A: NoReg, B: NoReg})
	b.f.NumRegs = 1
	b.done = true
	if err := p.Seal(); err == nil || !strings.Contains(err.Error(), "not an instruction opcode") {
		t.Fatalf("Seal = %v, want a fused code in Code rejected", err)
	}
}
