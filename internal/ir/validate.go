package ir

import "fmt"

// Validate checks every function, in two layers. The structural layer:
// instruction opcodes only (no fused dispatch codes), register indices in
// range, branch targets in range, call arities matching,
// region markers balanced within each function, and terminators present. The
// semantic layer (see semantic.go): no unreachable code, definite assignment
// of every register on all paths, and region markers that balance
// identically across every branch. It is run automatically by Seal.
func (p *Program) Validate() error {
	for _, f := range p.Funcs {
		if err := p.validateFunc(f); err != nil {
			return fmt.Errorf("ir: function %q: %w", f.Name, err)
		}
		if err := p.validateSemanticFunc(f); err != nil {
			return fmt.Errorf("ir: function %q: %w", f.Name, err)
		}
	}
	for id, r := range p.Regions {
		if r.ID != id {
			return fmt.Errorf("ir: region table corrupt at %d", id)
		}
	}
	return nil
}

func (p *Program) validateFunc(f *Function) error {
	if len(f.Code) == 0 {
		return fmt.Errorf("empty body")
	}
	regOK := func(r Reg) bool { return r >= 0 && int(r) < f.NumRegs }
	depth := 0
	for i, in := range f.Code {
		fail := func(format string, args ...any) error {
			return fmt.Errorf("instr %d (%s): %s", i, in, fmt.Sprintf(format, args...))
		}
		if in.Op >= opcodeCount {
			return fail("not an instruction opcode")
		}
		if in.Op.HasDst() && in.Dst != NoReg && !regOK(in.Dst) {
			return fail("dst r%d out of range (%d regs)", in.Dst, f.NumRegs)
		}
		if in.Op.IsBinary() || in.Op.IsUnary() || in.Op == OpCondBr || in.Op == OpEmit ||
			in.Op == OpEmitSci6 || in.Op == OpStore {
			if !regOK(in.A) {
				return fail("operand A r%d out of range", in.A)
			}
		}
		if (in.Op.IsBinary() || in.Op == OpStore) && !regOK(in.B) {
			return fail("operand B r%d out of range", in.B)
		}
		switch in.Op {
		case OpBr:
			if t := in.Imm.Int(); t < 0 || t >= int64(len(f.Code)) {
				return fail("branch target %d out of range", t)
			}
		case OpCondBr:
			if t := in.Imm.Int(); t < 0 || t >= int64(len(f.Code)) {
				return fail("then target %d out of range", t)
			}
			if t := in.Imm2.Int(); t < 0 || t >= int64(len(f.Code)) {
				return fail("else target %d out of range", t)
			}
		case OpCall:
			if in.Callee < 0 || int(in.Callee) >= len(p.Funcs) {
				return fail("callee %d out of range", in.Callee)
			}
			callee := p.Funcs[in.Callee]
			if len(in.Args) != callee.NumArgs {
				return fail("%d args for %q, want %d", len(in.Args), callee.Name, callee.NumArgs)
			}
			for _, a := range in.Args {
				if !regOK(a) {
					return fail("call arg r%d out of range", a)
				}
			}
		case OpHost:
			if in.Callee < 0 || int(in.Callee) >= len(p.HostDecls) {
				return fail("host callee %d out of range", in.Callee)
			}
			d := p.HostDecls[in.Callee]
			if len(in.Args) != d.NumArgs {
				return fail("%d args for host %q, want %d", len(in.Args), d.Name, d.NumArgs)
			}
			for _, a := range in.Args {
				if !regOK(a) {
					return fail("host arg r%d out of range", a)
				}
			}
			if d.HasRet && !regOK(in.Dst) {
				return fail("host %q returns a value but dst invalid", d.Name)
			}
		case OpRet:
			if in.A != NoReg && !regOK(in.A) {
				return fail("ret value r%d out of range", in.A)
			}
		case OpRegionEnter:
			if id := in.Imm.Int(); id < 0 || id >= int64(len(p.Regions)) {
				return fail("region id %d unknown", id)
			}
			depth++
		case OpRegionExit:
			if id := in.Imm.Int(); id < 0 || id >= int64(len(p.Regions)) {
				return fail("region id %d unknown", id)
			}
			depth--
			if depth < 0 {
				return fail("region exit without matching enter")
			}
		}
	}
	if depth != 0 {
		return fmt.Errorf("unbalanced region markers (depth %d at end)", depth)
	}
	if !f.Code[len(f.Code)-1].Op.IsTerminator() {
		return fmt.Errorf("does not end in a terminator")
	}
	return nil
}
