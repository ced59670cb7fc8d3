package irstatic

import (
	"fliptracker/internal/ir"
)

// DefReg returns the register an instruction defines, if any — everything the
// interpreter writes through regs[Dst]. A void host call (Dst == NoReg)
// defines nothing.
func DefReg(in *ir.Instr) (ir.Reg, bool) {
	if in.Op.HasDst() && in.Dst != ir.NoReg {
		return in.Dst, true
	}
	return ir.NoReg, false
}

// AppendUses appends every register an instruction reads to dst and returns
// it — operands A/B where the opcode consumes them, the condition of a
// conditional branch, the emitted/returned/stored registers, and call/host
// arguments.
func AppendUses(in *ir.Instr, dst []ir.Reg) []ir.Reg {
	switch {
	case in.Op.IsBinary():
		return append(dst, in.A, in.B)
	case in.Op.IsUnary():
		return append(dst, in.A)
	}
	switch in.Op {
	case ir.OpStore:
		return append(dst, in.A, in.B)
	case ir.OpCondBr, ir.OpEmit, ir.OpEmitSci6:
		return append(dst, in.A)
	case ir.OpRet:
		if in.A != ir.NoReg {
			return append(dst, in.A)
		}
	case ir.OpCall, ir.OpHost:
		return append(dst, in.Args...)
	}
	return dst
}

// Def identifies one reaching definition of a register: instruction Instr of
// the function (Arg == -1), or the value of parameter Arg arriving at entry
// (Instr == -1).
type Def struct {
	Instr int
	Arg   int
}

// DefUse holds the reaching-definitions solution of one function at
// instruction granularity: for every use of a register, which definitions
// (instructions, or incoming parameters) may have produced the value read.
// An empty reaching set means the use can only observe the frame's implicit
// zero initialization.
type DefUse struct {
	F   *ir.Function
	cfg *CFG

	// defs enumerates the definition sites: ids [0, NumArgs) are the
	// parameters, the rest are register-writing instructions in order.
	defs []Def
	// defsByReg[r] lists the def ids writing register r.
	defsByReg [][]int
	// defID[i] is the def id of instruction i, or -1.
	defID []int
	// in[b] is the reaching-def set at block b's entry.
	in []bitset
}

// BuildDefUse computes reaching definitions for f over the given CFG (pass
// nil to build one).
func BuildDefUse(f *ir.Function, cfg *CFG) *DefUse {
	if cfg == nil {
		cfg = BuildCFG(f)
	}
	d := &DefUse{F: f, cfg: cfg, defsByReg: make([][]int, f.NumRegs), defID: make([]int, len(f.Code))}
	for a := 0; a < f.NumArgs; a++ {
		d.defsByReg[a] = append(d.defsByReg[a], len(d.defs))
		d.defs = append(d.defs, Def{Instr: -1, Arg: a})
	}
	for i := range f.Code {
		d.defID[i] = -1
		if r, ok := DefReg(&f.Code[i]); ok {
			d.defID[i] = len(d.defs)
			d.defsByReg[r] = append(d.defsByReg[r], len(d.defs))
			d.defs = append(d.defs, Def{Instr: i, Arg: -1})
		}
	}

	nd := len(d.defs)
	out := make([]bitset, len(cfg.Blocks))
	d.in = make([]bitset, len(cfg.Blocks))
	for b := range cfg.Blocks {
		out[b] = newBitset(nd)
		d.in[b] = newBitset(nd)
	}
	// Entry block receives the parameter defs.
	if len(cfg.RPO) > 0 {
		for a := 0; a < f.NumArgs; a++ {
			d.in[cfg.RPO[0]].set(a)
		}
	}

	// Forward may-analysis: IN = ∪ preds' OUT; OUT = transfer(IN) where each
	// register write kills the register's other defs and generates its own.
	tmp := newBitset(nd)
	for changed := true; changed; {
		changed = false
		for _, b := range cfg.RPO {
			for _, p := range cfg.Blocks[b].Preds {
				d.in[b].or(out[p])
			}
			tmp.copyFrom(d.in[b])
			for i := cfg.Blocks[b].Start; i < cfg.Blocks[b].End; i++ {
				if r, ok := DefReg(&d.F.Code[i]); ok {
					for _, id := range d.defsByReg[r] {
						tmp.clear(id)
					}
					tmp.set(d.defID[i])
				}
			}
			if !equalBits(tmp, out[b]) {
				out[b].copyFrom(tmp)
				changed = true
			}
		}
	}
	return d
}

func equalBits(a, b bitset) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Reaching returns the definitions of register r that may reach instruction
// i (i.e. that a read of r at i may observe), in def-id order (parameters
// first, then instructions by position). An empty result means r is never
// written on any path to i and the use reads the frame's zero
// initialization. Unreachable instructions have no reaching definitions.
func (d *DefUse) Reaching(i int, r ir.Reg) []Def {
	b := d.cfg.BlockOf[i]
	if !d.cfg.Reachable(b) {
		return nil
	}
	// A def of r inside the block before i shadows everything older.
	for j := i - 1; j >= d.cfg.Blocks[b].Start; j-- {
		if dr, ok := DefReg(&d.F.Code[j]); ok && dr == r {
			return []Def{{Instr: j, Arg: -1}}
		}
	}
	var out []Def
	for _, id := range d.defsByReg[r] {
		if d.in[b].get(id) {
			out = append(out, d.defs[id])
		}
	}
	return out
}
