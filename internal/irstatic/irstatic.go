// Package irstatic is the static-analysis counterpart of the dynamic DDDG: a
// whole-program value-dependence analysis over internal/ir that proves fault
// sites benign without executing them.
//
// The dynamic pipeline answers "did this flip matter?" by running the fault
// and diffing traces (§III of the paper). This package answers a weaker
// question soundly and for free: "can a flip at this site possibly matter?"
// For every static instruction it computes whether a corrupted value written
// there can reach any observable sink — an OpEmit/OpEmitSci6, a store, a
// branch condition, a crash-capable operand (division, address), a host-call
// argument, or a dangerous return value. Sites whose corruption provably
// reaches nothing are Benign: an injection there is guaranteed to classify
// Success (the run completes with byte-identical output). Sites where the
// interpreter's fires rule (interp.CanFire) rejects the fault classify
// NeverFires: the run is fault-free and classifies NotApplied.
//
// No campaign consults these verdicts. They serve the `fliptracker static`
// report, prune-rate statistics (Pruner.StatsFor) and soundness checks; MPI
// campaigns skip the faults that cannot fire by the fires rule alone.
//
// The analysis is a sound over-approximation: Live sites may still be
// dynamically benign (most are — that is the paper's headline result), but a
// Benign or NeverFires verdict is a guarantee, which core.CrossCheckOutcome
// checks against a dynamic outcome.
package irstatic

import (
	"fmt"

	"fliptracker/internal/interp"
	"fliptracker/internal/ir"
)

// Class is the static classification of one fault site.
type Class uint8

const (
	// Live: corruption at this site may reach a sink; the injection must
	// run to be classified.
	Live Class = iota
	// Benign: the fault definitely fires and its corruption can never reach
	// any sink — the run is guaranteed to complete with output identical to
	// the fault-free run, classifying Success.
	Benign
	// NeverFires: the fault cannot fire at this site (the instruction
	// produces no value, or the target register/address is out of range),
	// classifying NotApplied.
	NeverFires
)

// String names the class.
func (c Class) String() string {
	switch c {
	case Live:
		return "live"
	case Benign:
		return "benign"
	case NeverFires:
		return "never-fires"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// flow is the per-function dataflow solution: for every program point
// (before instruction i) and register r, whether r's value may reach a sink
// (sinkIn) or the function's return value (retIn).
type flow struct {
	f *ir.Function
	// sinkIn[i]/retIn[i] are bitsets over the function's registers at the
	// point just before instruction i executes.
	sinkIn []bitset
	retIn  []bitset
}

// summary is a function's interprocedural abstraction: per parameter,
// whether the incoming value may reach a sink inside the function (or its
// callees), and whether it may flow into the function's return value.
type summary struct {
	paramSink []bool
	paramRet  []bool
}

// Analysis is the whole-program static dependence analysis of one sealed
// program. Build it with Analyze; query fault sites by global static id.
// An Analysis is immutable and safe for concurrent use.
type Analysis struct {
	Prog  *ir.Program
	flows []*flow
	sums  []summary
	// retDanger[f] reports whether function f's return value may reach a
	// sink in some caller (transitively).
	retDanger []bool
}

// Analyze computes the whole-program dependence analysis. The program must
// be sealed (global static ids assigned, structure validated).
func Analyze(p *ir.Program) (*Analysis, error) {
	if !p.Sealed() {
		return nil, fmt.Errorf("irstatic: program %q not sealed", p.Name)
	}
	a := &Analysis{
		Prog:      p,
		flows:     make([]*flow, len(p.Funcs)),
		sums:      make([]summary, len(p.Funcs)),
		retDanger: make([]bool, len(p.Funcs)),
	}
	for i, f := range p.Funcs {
		fl := &flow{f: f}
		n := len(f.Code)
		fl.sinkIn = make([]bitset, n)
		fl.retIn = make([]bitset, n)
		for j := 0; j < n; j++ {
			fl.sinkIn[j] = newBitset(f.NumRegs)
			fl.retIn[j] = newBitset(f.NumRegs)
		}
		a.flows[i] = fl
		a.sums[i] = summary{
			paramSink: make([]bool, f.NumArgs),
			paramRet:  make([]bool, f.NumArgs),
		}
	}

	// Interprocedural fixpoint: re-solve every function against the current
	// callee summaries until no summary grows. Summaries only gain bits, so
	// the outer loop terminates (bounded by total parameter count + 1).
	for changed := true; changed; {
		changed = false
		for i := range a.flows {
			a.solveFunc(a.flows[i])
			if a.updateSummary(i) {
				changed = true
			}
		}
	}

	// retDanger fixpoint: g's return value is dangerous when some call site
	// writes it into a register that may reach a sink — or into the
	// caller's own (dangerous) return value.
	for changed := true; changed; {
		changed = false
		for hi, fl := range a.flows {
			for c := range fl.f.Code {
				in := &fl.f.Code[c]
				if in.Op != ir.OpCall || in.Dst == ir.NoReg {
					continue
				}
				g := int(in.Callee)
				if a.retDanger[g] {
					continue
				}
				s, r := fl.outBits(c, in.Dst)
				if s || (r && a.retDanger[hi]) {
					a.retDanger[g] = true
					changed = true
				}
			}
		}
	}
	return a, nil
}

// outBits returns the (sink, ret) bits of register r at the point just after
// instruction i — the union over i's control-flow successors of their
// entry-point bits.
func (fl *flow) outBits(i int, r ir.Reg) (sink, ret bool) {
	var succBuf [2]int
	for _, s := range fl.f.Succs(i, succBuf[:0]) {
		if fl.sinkIn[s].get(int(r)) {
			sink = true
		}
		if fl.retIn[s].get(int(r)) {
			ret = true
		}
	}
	return sink, ret
}

// solveFunc runs the intra-procedural backward fixpoint for one function
// under the current callee summaries. Bits only accumulate across calls, so
// re-solving with grown summaries is monotone.
func (a *Analysis) solveFunc(fl *flow) {
	n := len(fl.f.Code)
	nr := fl.f.NumRegs
	outSink := newBitset(nr)
	outRet := newBitset(nr)
	for changed := true; changed; {
		changed = false
		for i := n - 1; i >= 0; i-- {
			in := &fl.f.Code[i]
			// OUT = join of successors' IN.
			for j := range outSink {
				outSink[j] = 0
				outRet[j] = 0
			}
			var succBuf [2]int
			for _, s := range fl.f.Succs(i, succBuf[:0]) {
				outSink.or(fl.sinkIn[s])
				outRet.or(fl.retIn[s])
			}

			// Kill: the defined register's pre-state is independent of its
			// post-state; capture the post bits first, they flow to uses.
			dstSink, dstRet := false, false
			if d, ok := in.Def(); ok {
				dstSink, dstRet = outSink.get(int(d)), outRet.get(int(d))
				outSink.clear(int(d))
				outRet.clear(int(d))
			}

			// Gen: sink-making uses, return uses, and flow-through to the
			// destination.
			flowTo := func(r ir.Reg) {
				if dstSink {
					outSink.set(int(r))
				}
				if dstRet {
					outRet.set(int(r))
				}
			}
			switch {
			case in.Op == ir.OpSDiv || in.Op == ir.OpSRem:
				// Corrupted operands can raise the division crash.
				outSink.set(int(in.A))
				outSink.set(int(in.B))
				flowTo(in.A)
				flowTo(in.B)
			case in.Op == ir.OpLoad:
				// A corrupted address can crash (or read unrelated data,
				// which flows to the destination — subsumed by the crash
				// sink bit).
				outSink.set(int(in.A))
			case in.Op.IsBinary():
				flowTo(in.A)
				flowTo(in.B)
			case in.Op.IsUnary():
				flowTo(in.A)
			case in.Op == ir.OpStore:
				// Both the address (crash, aliasing) and the value
				// (memory is not tracked) are sinks.
				outSink.set(int(in.A))
				outSink.set(int(in.B))
			case in.Op == ir.OpCondBr:
				// Control divergence reaches everything.
				outSink.set(int(in.A))
			case in.Op == ir.OpEmit || in.Op == ir.OpEmitSci6:
				outSink.set(int(in.A))
			case in.Op == ir.OpRet:
				if in.A != ir.NoReg {
					outRet.set(int(in.A))
				}
			case in.Op == ir.OpHost:
				// Host calls observe their arguments natively (MPI sends,
				// output, RNG): every argument is a sink.
				for _, r := range in.Args {
					outSink.set(int(r))
				}
			case in.Op == ir.OpCall:
				sum := a.sums[in.Callee]
				for j, r := range in.Args {
					if sum.paramSink[j] {
						outSink.set(int(r))
					}
					if sum.paramRet[j] && in.Dst != ir.NoReg {
						// The argument may flow into the callee's return
						// value, which lands in Dst.
						flowTo(r)
					}
				}
			}

			if fl.sinkIn[i].or(outSink) {
				changed = true
			}
			if fl.retIn[i].or(outRet) {
				changed = true
			}
		}
	}
}

// updateSummary refreshes function i's summary from its entry-point solution
// and reports whether it grew.
func (a *Analysis) updateSummary(i int) bool {
	fl := a.flows[i]
	if len(fl.f.Code) == 0 {
		return false
	}
	sum := &a.sums[i]
	changed := false
	for j := 0; j < fl.f.NumArgs; j++ {
		if !sum.paramSink[j] && fl.sinkIn[0].get(j) {
			sum.paramSink[j] = true
			changed = true
		}
		if !sum.paramRet[j] && fl.retIn[0].get(j) {
			sum.paramRet[j] = true
			changed = true
		}
	}
	return changed
}

// RetDanger reports whether function fi's return value may reach a sink in
// some caller.
func (a *Analysis) RetDanger(fi int) bool { return a.retDanger[fi] }

// dangerous reports whether register r holding corrupted state at the given
// point of function fi can reach a sink: directly, or by flowing into the
// function's return value when that return value is itself dangerous.
func (a *Analysis) dangerous(fi int, sink, ret bool) bool {
	return sink || (ret && a.retDanger[fi])
}

// ClassifyDst classifies a FaultDst (flipped instruction result) at the
// instruction with global static id sid, assuming a run executes it. A site
// where the interpreter's fires rule (interp.CanFire) rejects the fault
// never fires.
func (a *Analysis) ClassifyDst(sid int) Class {
	if !interp.CanFire(a.Prog, sid, interp.Fault{Kind: interp.FaultDst}) {
		return NeverFires
	}
	f, off := a.Prog.FuncOf(sid)
	in := &f.Code[off]
	switch in.Op {
	case ir.OpStore:
		// The flip lands on the value written to memory, which the analysis
		// does not track.
		return Live
	case ir.OpCall:
		// The flip is applied to the value the callee returns. When the
		// callee also returns void on some path, whether the fault fires
		// depends on that path; neither Success nor NotApplied can be
		// promised.
		if _, void := a.Prog.Funcs[in.Callee].Returns(); void {
			return Live
		}
	}
	s, r := a.flows[f.Index].outBits(off, in.Dst)
	if a.dangerous(f.Index, s, r) {
		return Live
	}
	return Benign
}

// ClassifyReg classifies a FaultReg (flipped register before the instruction
// at sid executes) for register r of the executing frame. A register outside
// the frame, negative ones included, never fires (interp.CanFire).
func (a *Analysis) ClassifyReg(sid int, r ir.Reg) Class {
	if !interp.CanFire(a.Prog, sid, interp.Fault{Kind: interp.FaultReg, Reg: r}) {
		return NeverFires
	}
	f, off := a.Prog.FuncOf(sid)
	fl := a.flows[f.Index]
	if a.dangerous(f.Index, fl.sinkIn[off].get(int(r)), fl.retIn[off].get(int(r))) {
		return Live
	}
	return Benign
}

// SiteStats counts the static instructions of one function by their
// FaultDst classification.
type SiteStats struct {
	Func                     string
	Live, Benign, NeverFires int
}

// Total returns the function's static instruction count.
func (s SiteStats) Total() int { return s.Live + s.Benign + s.NeverFires }

// Stats classifies every static instruction (as a FaultDst site) per
// function — the per-app summary behind the `fliptracker static` report.
func (a *Analysis) Stats() []SiteStats {
	out := make([]SiteStats, len(a.Prog.Funcs))
	for i, f := range a.Prog.Funcs {
		out[i].Func = f.Name
		for off := range f.Code {
			switch a.ClassifyDst(f.Base + off) {
			case Live:
				out[i].Live++
			case Benign:
				out[i].Benign++
			case NeverFires:
				out[i].NeverFires++
			}
		}
	}
	return out
}

// Disassemble renders the program with each instruction annotated by its
// static FaultDst classification — ir.Program.DisassembleAnnotated driven by
// this analysis.
func (a *Analysis) Disassemble() string {
	return a.Prog.DisassembleAnnotated(func(sid int) string {
		return a.ClassifyDst(sid).String()
	})
}
