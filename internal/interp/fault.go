package interp

import (
	"fmt"

	"fliptracker/internal/ir"
)

// FaultKind selects what state a fault flips.
type FaultKind uint8

const (
	// FaultDst flips one bit of the value produced by the dynamic
	// instruction at Step, before it is written to its destination. This
	// models a soft error in a functional unit or result bus, and is the
	// paper's per-instruction injection into "the user-specified population
	// of instructions and operands" (§IV-C).
	FaultDst FaultKind = iota
	// FaultMem flips one bit of memory word Addr just before executing the
	// instruction at Step. Used for injecting into region *input*
	// locations at a region-instance boundary (§III-B).
	FaultMem
	// FaultReg flips one bit of register Reg in the frame executing at
	// Step, just before that instruction runs.
	FaultReg
)

// String names the kind.
func (k FaultKind) String() string {
	switch k {
	case FaultDst:
		return "dst"
	case FaultMem:
		return "mem"
	case FaultReg:
		return "reg"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Fault describes one single-bit flip to apply during a run. The single-bit
// model follows the paper's fault model (§II-A): multi-bit soft errors are
// rare enough to ignore.
type Fault struct {
	// Step is the 0-based dynamic instruction index at which to apply.
	Step uint64
	// Bit in [0,63] is the bit to flip.
	Bit uint8
	// Kind selects the target state.
	Kind FaultKind
	// Addr is the memory word for FaultMem.
	Addr int64
	// Reg is the register for FaultReg.
	Reg ir.Reg
}

// String renders the fault for reports.
func (f *Fault) String() string {
	switch f.Kind {
	case FaultMem:
		return fmt.Sprintf("flip bit %d of mem[%d] at step %d", f.Bit, f.Addr, f.Step)
	case FaultReg:
		return fmt.Sprintf("flip bit %d of r%d at step %d", f.Bit, f.Reg, f.Step)
	default:
		return fmt.Sprintf("flip bit %d of dst at step %d", f.Bit, f.Step)
	}
}

// CanFire is the interpreter's fires rule: it reports whether fault f, struck
// when the instruction with global static id sid executes, can flip
// anything. The dispatch applies a fault only where CanFire holds, so a
// fault it rejects leaves the run fault-free and classifies NotApplied.
//
//   - Bit must be in [0,63]: a wider shift flips no bit of a word.
//   - FaultReg fires when Reg is a register of the executing frame.
//   - FaultMem fires when Addr is inside the program's memory.
//   - FaultDst fires at an instruction that produces a value. It never fires
//     at nop, br, condbr, ret, emit, emitsci6 or a region marker, nor at a
//     host call with no result. A call latches the flip and applies it to
//     the value the callee returns, so it fires only when the call has a
//     destination and some reachable return of the callee carries a value.
//     A callee that returns a value on some paths only may or may not fire:
//     CanFire answers true, and the run decides.
//
// An sid outside the program executes nothing, so nothing fires there.
func CanFire(p *ir.Program, sid int, f Fault) bool {
	fn, off := p.FuncOf(sid)
	if fn == nil || f.Bit > 63 {
		return false
	}
	switch f.Kind {
	case FaultReg:
		return f.Reg >= 0 && int(f.Reg) < fn.NumRegs
	case FaultMem:
		return f.Addr >= 0 && f.Addr < p.MemWords
	case FaultDst:
		in := &fn.Code[off]
		switch in.Op {
		case ir.OpNop, ir.OpBr, ir.OpCondBr, ir.OpRet,
			ir.OpEmit, ir.OpEmitSci6, ir.OpRegionEnter, ir.OpRegionExit:
			return false
		case ir.OpHost:
			return p.HostDecls[in.Callee].HasRet
		case ir.OpCall:
			if in.Dst == ir.NoReg {
				return false
			}
			value, _ := p.Funcs[in.Callee].Returns()
			return value
		}
		return true
	}
	return false
}
