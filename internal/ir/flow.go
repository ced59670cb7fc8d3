package ir

// This file holds the instruction-level control-flow and register facts
// shared by Validate's semantic checks and the interpreter's fires rule
// (interp.CanFire, through Function.Returns).

// Succs appends the control-flow successors of f.Code[i] to dst and returns
// it: branch targets for branches, nothing for returns, the next instruction
// otherwise.
func (f *Function) Succs(i int, dst []int) []int {
	in := &f.Code[i]
	switch in.Op {
	case OpBr:
		return append(dst, int(in.Imm.Int()))
	case OpCondBr:
		t, e := int(in.Imm.Int()), int(in.Imm2.Int())
		dst = append(dst, t)
		if e != t {
			dst = append(dst, e)
		}
		return dst
	case OpRet:
		return dst
	default:
		return append(dst, i+1)
	}
}

// Reachable reports, per instruction, whether some path from the entry
// executes it.
func (f *Function) Reachable() []bool {
	reach := make([]bool, len(f.Code))
	if len(f.Code) == 0 {
		return reach
	}
	var succBuf [2]int
	stack := []int{0}
	reach[0] = true
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range f.Succs(i, succBuf[:0]) {
			if !reach[s] {
				reach[s] = true
				stack = append(stack, s)
			}
		}
	}
	return reach
}

// Returns reports which kinds of return some path from the entry reaches:
// one that carries a value, one that is void, or both. A function with
// neither cannot complete.
func (f *Function) Returns() (value, void bool) {
	reach := f.Reachable()
	for i := range f.Code {
		if in := &f.Code[i]; in.Op == OpRet && reach[i] {
			if in.A != NoReg {
				value = true
			} else {
				void = true
			}
		}
	}
	return value, void
}

// Def returns the register the instruction writes, if any: everything the
// interpreter writes through regs[Dst]. A void host call (Dst == NoReg)
// defines nothing.
func (in *Instr) Def() (Reg, bool) {
	if in.Op.HasDst() && in.Dst != NoReg {
		return in.Dst, true
	}
	return NoReg, false
}

// uses appends every register the instruction reads to dst and returns it.
func (in *Instr) uses(dst []Reg) []Reg {
	switch {
	case in.Op.IsBinary():
		return append(dst, in.A, in.B)
	case in.Op.IsUnary():
		return append(dst, in.A)
	}
	switch in.Op {
	case OpStore:
		return append(dst, in.A, in.B)
	case OpCondBr, OpEmit, OpEmitSci6:
		return append(dst, in.A)
	case OpRet:
		if in.A != NoReg {
			return append(dst, in.A)
		}
	case OpCall, OpHost:
		return append(dst, in.Args...)
	}
	return dst
}
