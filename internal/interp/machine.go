// Package interp executes IR programs. It is the reproduction's stand-in for
// the paper's compiled-binary substrate: it runs the workloads, optionally
// records the dynamic instruction trace that LLVM-Tracer would produce
// (§IV-A), and applies single-bit-flip faults the way FlipIt would (§IV-C).
package interp

import (
	"fmt"
	"math"
	"strconv"

	"fliptracker/internal/ir"
	"fliptracker/internal/trace"
)

// TraceMode selects how much the machine records while running.
type TraceMode uint8

const (
	// TraceOff records nothing (fastest; used for injection campaigns).
	TraceOff TraceMode = iota
	// TraceFull records every dynamic instruction with operand values
	// (restricted to some functions by Machine.TraceFuncs).
	TraceFull
)

// HostFn is a native function callable from IR via OpHost. Args arrive as raw
// words; the returned word is written to the destination register when the
// declaration has a result. Returning an error crashes the run.
type HostFn func(m *Machine, args []ir.Word) (ir.Word, error)

// Machine executes one sealed program. A Machine is single-use per Run but
// cheap to create; campaigns create one per injection.
//
// Execution keeps the call stack in explicit frames rather than on the Go
// stack, so a run can pause between any two dynamic instructions (RunUntil),
// be deep-copied (Snapshot), and continue from a copied state (Restore +
// Resume). This is what lets injection campaigns share fault-free prefix
// work across thousands of runs instead of replaying every run from step 0.
//
// Fault, StepLimit and RecordSIDs are read when Run, RunUntil or Resume
// starts executing, and folded into the loop's one per-step event check;
// changing them from a host call has no effect until the next such call.
type Machine struct {
	Prog *ir.Program
	// StepLimit bounds dynamic instructions; exceeding it reports RunHang.
	StepLimit uint64
	// MaxDepth bounds the call stack; exceeding it reports RunCrashed.
	MaxDepth int
	// Mode selects trace collection.
	Mode TraceMode
	// Fault, when non-nil, is applied once at its dynamic step.
	Fault *Fault
	// FaultApplied reports whether the fault actually fired.
	FaultApplied bool
	// TraceHint preallocates the record buffer for TraceFull runs (e.g.
	// the step count of a prior untraced run); 0 means grow on demand.
	TraceHint uint64
	// TraceFuncs, when non-nil, restricts TraceFull recording to the
	// functions whose indexes are present (selective tracing — the
	// paper's mitigation for large-scale trace collection, §V-B: "one can
	// selectively collect traces for individual functions"). Region
	// markers are always recorded so spans stay recoverable.
	TraceFuncs map[int]bool
	// RecordSIDs, when set before the run starts, logs the global static
	// id of every executed instruction, indexed by dynamic step (SIDLog).
	// Fault skipping uses one such clean run to map a fault's Step to the
	// static instruction it would strike (CanFire); trace records cannot
	// substitute (branches, nops and returns leave no per-step record).
	// The log is deliberately excluded from Snapshot/Restore: it is a
	// whole-run artifact of a dedicated recording run, not machine state.
	RecordSIDs bool

	// mem is the program's data memory, paged behind a copy-on-write table
	// (see mem.go). External access goes through MemLen/MemAt/SetMemAt and
	// the bulk ReadMem/WriteMem helpers.
	mem cowMem

	hosts  []HostFn
	output []trace.OutVal
	recs   trace.Recs
	sidLog []int32
	steps  uint64
	frames uint64
	rng    uint64

	status   trace.RunStatus
	crashMsg string

	framePool [][]ir.Word
	stack     []frame
	started   bool
	finished  bool
}

// frame is one live activation record on the machine's explicit call stack.
type frame struct {
	f    *ir.Function
	fid  uint64
	pc   int
	regs []ir.Word
	full bool
	// retFlip/retBit/retStep carry a pending FaultDst across a call: the
	// fault is drawn at the call instruction's dynamic step but lands on
	// the value the callee eventually returns. The bit is captured here so
	// a snapshot taken mid-call resumes identically even on a machine
	// whose Fault field differs.
	retFlip bool
	retBit  uint8
	retStep uint64
}

type runTerminated struct{ status trace.RunStatus }

// noPause is a pause point no run reaches (StepLimit fires first).
const noPause = math.MaxUint64

// maxTraceReserve caps record-buffer preallocation (TraceHint, PrimeTrace)
// at 64M records so a corrupt hint cannot exhaust memory.
const maxTraceReserve = 64 << 20

// NewMachine builds a machine for a sealed program with default limits.
func NewMachine(p *ir.Program) (*Machine, error) {
	if !p.Sealed() {
		return nil, fmt.Errorf("interp: program %q not sealed", p.Name)
	}
	m := &Machine{
		Prog:      p,
		mem:       newCowMem(p.MemWords),
		StepLimit: 200_000_000,
		MaxDepth:  256,
		hosts:     make([]HostFn, len(p.HostDecls)),
		rng:       0x9E3779B97F4A7C15,
	}
	return m, nil
}

// BindHost attaches a native implementation to a declared host function.
func (m *Machine) BindHost(name string, fn HostFn) error {
	i, ok := m.Prog.HostIndex(name)
	if !ok {
		return fmt.Errorf("interp: host %q not declared by program %q", name, m.Prog.Name)
	}
	m.hosts[i] = fn
	return nil
}

// SeedRNG reseeds the machine-local xorshift generator behind the standard
// "rand01" host (see hosts.go). Runs are deterministic for a fixed seed,
// which is what makes faulty/fault-free trace matching possible (§V-B).
func (m *Machine) SeedRNG(seed uint64) {
	if seed == 0 {
		seed = 1
	}
	m.rng = seed
}

// Steps returns the number of dynamic instructions executed so far.
func (m *Machine) Steps() uint64 { return m.steps }

// SIDLog returns the step-indexed log of executed static instruction ids
// recorded under RecordSIDs: SIDLog()[s] is the global static id of the
// instruction executed at dynamic step s. Nil unless RecordSIDs was set.
func (m *Machine) SIDLog() []int32 { return m.sidLog }

// CrashMessage returns the crash description after a RunCrashed result.
func (m *Machine) CrashMessage() string { return m.crashMsg }

// crash ends the run as RunCrashed after steps dynamic instructions.
func (m *Machine) crash(steps uint64, format string, args ...any) {
	m.steps = steps
	m.crashMsg = fmt.Sprintf(format, args...)
	panic(runTerminated{trace.RunCrashed})
}

// fullTrace reports whether f's instructions are recorded under TraceFull.
func (m *Machine) fullTrace(f *ir.Function) bool {
	return m.Mode == TraceFull && (m.TraceFuncs == nil || m.TraceFuncs[f.Index])
}

func (m *Machine) checkHosts() error {
	for i, h := range m.hosts {
		if h == nil {
			return fmt.Errorf("interp: host %q declared but not bound", m.Prog.HostDecls[i].Name)
		}
	}
	return nil
}

// start prepares a fresh machine for execution and pushes the entry frame.
func (m *Machine) start() error {
	if m.started {
		return fmt.Errorf("interp: machine for %q already ran", m.Prog.Name)
	}
	m.started = true
	if err := m.checkHosts(); err != nil {
		return err
	}
	m.status = trace.RunOK
	if m.Mode == TraceFull && m.TraceHint > 0 {
		hint := m.TraceHint
		if hint > maxTraceReserve {
			hint = maxTraceReserve
		}
		m.recs = trace.GetRecs(int(hint))
	}
	entry := m.Prog.Entry
	m.stack = append(m.stack[:0], frame{
		f:    entry,
		regs: m.grabFrame(entry.NumRegs),
		full: m.fullTrace(entry),
	})
	return nil
}

// Run executes the program to completion (or crash/hang) and returns the
// trace. The returned trace always carries Status, Steps and Output; Recs is
// populated according to Mode.
func (m *Machine) Run() (*trace.Trace, error) {
	if err := m.start(); err != nil {
		return nil, err
	}
	m.exec(noPause)
	return m.trace(), nil
}

// RunUntil executes until the machine is about to execute dynamic step
// `step` (so Steps() == step and that step has not yet run), or until the
// program terminates, whichever comes first. It reports whether the machine
// paused; a paused machine can be Snapshot()ed and continued with Resume or
// further RunUntil calls. A fresh machine is started on first use.
func (m *Machine) RunUntil(step uint64) (bool, error) {
	if m.finished {
		return false, fmt.Errorf("interp: machine for %q already finished", m.Prog.Name)
	}
	if !m.started {
		if err := m.start(); err != nil {
			return false, err
		}
	} else if err := m.checkHosts(); err != nil {
		return false, err
	}
	return m.exec(step), nil
}

// Resume runs a paused or restored machine to completion and returns the
// trace, exactly as Run would have from step 0. Resuming a finished machine
// just returns its trace again.
func (m *Machine) Resume() (*trace.Trace, error) {
	if !m.started {
		return nil, fmt.Errorf("interp: machine for %q resumed before RunUntil/Restore", m.Prog.Name)
	}
	if m.finished {
		return m.trace(), nil
	}
	if err := m.checkHosts(); err != nil {
		return nil, err
	}
	m.exec(noPause)
	return m.trace(), nil
}

// trace assembles the run's result trace from the machine state.
func (m *Machine) trace() *trace.Trace {
	t := &trace.Trace{
		ProgName: m.Prog.Name,
		Recs:     m.recs,
		Output:   m.output,
		Status:   m.status,
		Steps:    m.steps,
	}
	if m.Fault != nil {
		t.FaultNote = m.Fault.String()
	}
	return t
}

// exec advances execution until termination or the pause point, translating
// crash/hang panics into a final status. Reports whether it paused.
func (m *Machine) exec(pauseAt uint64) (paused bool) {
	defer func() {
		if r := recover(); r != nil {
			rt, ok := r.(runTerminated)
			if !ok {
				panic(r)
			}
			m.status = rt.status
			m.finished = true
			paused = false
		}
	}()
	if m.loop(pauseAt) {
		return true
	}
	m.finished = true
	return false
}

func (m *Machine) grabFrame(n int) []ir.Word {
	if len(m.framePool) > 0 {
		f := m.framePool[len(m.framePool)-1]
		m.framePool = m.framePool[:len(m.framePool)-1]
		if cap(f) >= n {
			f = f[:n]
			for i := range f {
				f[i] = 0
			}
			return f
		}
	}
	return make([]ir.Word, n)
}

func (m *Machine) releaseFrame(f []ir.Word) {
	m.framePool = append(m.framePool, f)
}

// nextEvent returns the first step, at or after steps, at which the loop
// must leave its hot path: the pause point, the StepLimit hang or the
// pending fault's step. Under RecordSIDs every step is an event, so every
// step is logged.
func (m *Machine) nextEvent(steps, pauseAt uint64) uint64 {
	if m.RecordSIDs {
		return steps
	}
	next := min(pauseAt, m.StepLimit)
	if f := m.Fault; f != nil && !m.FaultApplied && f.Step >= steps && f.Step < next {
		next = f.Step
	}
	return next
}

// applyFault applies a fault drawn at step, struck at the instruction with
// static id sid, where the fires rule (CanFire) lets it fire. A register or
// memory flip lands before the instruction runs; a FaultDst instead strikes
// the instruction's result, so applyFault only reports it and the op applies
// it.
func (m *Machine) applyFault(step uint64, sid int, regs []ir.Word) (flipDst bool) {
	f := m.Fault
	if f == nil || m.FaultApplied || step != f.Step || !CanFire(m.Prog, sid, *f) {
		return false
	}
	switch f.Kind {
	case FaultDst:
		return true
	case FaultReg:
		regs[f.Reg] ^= ir.Word(1) << f.Bit
	case FaultMem:
		*m.mem.writable(f.Addr) ^= ir.Word(1) << f.Bit
	}
	m.FaultApplied = true
	return false
}

// loop is the interpreter core: it executes the top frame instruction by
// instruction, pushing and popping frames on call/return. It returns true
// when it paused at pauseAt, false when the entry function returned.
//
// The top frame is mirrored in locals while it runs; call and return go
// back to the outer loop to switch frames, so those locals stay fixed in
// the instruction loop and the compiler does not shuffle them through the
// stack on every step. The step counter is a local too, written back to
// m.steps before every host call and on every way out (pause, return,
// crash, hang). Each step makes one event check: the pause
// point, StepLimit and the pending fault step are folded into next when the
// loop is entered, and the cold path under that check handles whichever
// fires (and logs SIDs, since RecordSIDs makes every step an event).
//
// Untraced frames dispatch on the function's decoded codes (ir.Function.
// Dispatch), whose fused codes run a whole hot sequence per dispatch.
// Traced frames dispatch on the plain opcodes, so every record comes from a
// plain handler. A fused handler runs its instructions 2..k only when no
// event falls on their steps (steps+k-1 <= next); otherwise it runs its
// first instruction alone and the next iteration takes the event.
func (m *Machine) loop(pauseAt uint64) bool {
	// The page tables are hoisted like the hot frame: own() and host-side
	// WriteMem mutate entries in place (never reallocating the tables), so
	// the local slice headers stay valid for the whole run.
	pages, wpages, memWords := m.mem.pages, m.mem.wpages, m.mem.words
	steps := m.steps
	next := m.nextEvent(steps, pauseAt)
frames:
	for {
		cur := &m.stack[len(m.stack)-1]
		f, code, disp, pc, regs, fid, full := cur.f, cur.f.Code, cur.f.Dispatch, cur.pc, cur.regs, cur.fid, cur.full
		for {
			if uint(pc) >= uint(len(code)) {
				m.crash(steps, "pc %d out of range in %s", pc, f.Name)
			}
			in := &code[pc]
			op, flipDst := in.Op, false
			if steps >= next {
				if steps >= pauseAt {
					m.steps = steps
					m.stack[len(m.stack)-1].pc = pc
					return true
				}
				if m.RecordSIDs {
					m.sidLog = append(m.sidLog, int32(f.Base+pc))
				}
				if steps >= m.StepLimit {
					m.steps = steps + 1
					panic(runTerminated{trace.RunHang})
				}
				flipDst = m.applyFault(steps, f.Base+pc, regs)
				next = m.nextEvent(steps+1, pauseAt)
			} else if !full {
				op = disp[pc]
			}
			step := steps
			steps++

			// Trace records are appended column-at-a-time inside each op's
			// `if full` block through the shape-specialized appenders
			// (Append0/1/2, AppendCondBr, AppendMarker): building a Rec row
			// here would zero the (large) struct on every step of untraced
			// runs, which profiles as a top cost of the hot loop.

			var v ir.Word
			switch op {
			case ir.OpNop:
				pc++
				continue

			case ir.OpConst:
				v = in.Imm
				if flipDst {
					v ^= ir.Word(1) << m.Fault.Bit
					m.FaultApplied = true
				}
				regs[in.Dst] = v
				if full {
					m.recs.Append0(int32(f.Base+pc), in.Op, in.Type, step,
						trace.RegLoc(fid, in.Dst), v)
				}
				pc++
				continue

			case ir.OpLoad:
				addr := regs[in.A].Int()
				if addr < 0 || addr >= memWords {
					m.crash(steps, "load from invalid address %d (sid %d)", addr, f.Base+pc)
				}
				raw := pages[addr>>pageShift][addr&pageMask]
				v = raw
				if flipDst {
					v ^= ir.Word(1) << m.Fault.Bit
					m.FaultApplied = true
				}
				regs[in.Dst] = v
				if full {
					m.recs.Append2(int32(f.Base+pc), in.Op, in.Type, step,
						trace.RegLoc(fid, in.Dst), v,
						trace.MemLoc(addr), raw,
						trace.RegLoc(fid, in.A), regs[in.A])
				}
				pc++
				continue

			case ir.OpStore:
				addr := regs[in.A].Int()
				if addr < 0 || addr >= memWords {
					m.crash(steps, "store to invalid address %d (sid %d)", addr, f.Base+pc)
				}
				v = regs[in.B]
				if flipDst {
					v ^= ir.Word(1) << m.Fault.Bit
					m.FaultApplied = true
				}
				pg := wpages[addr>>pageShift]
				if pg == nil {
					pg = m.mem.own(int(addr >> pageShift))
				}
				pg[addr&pageMask] = v
				if full {
					m.recs.Append2(int32(f.Base+pc), in.Op, in.Type, step,
						trace.MemLoc(addr), v,
						trace.RegLoc(fid, in.B), regs[in.B],
						trace.RegLoc(fid, in.A), regs[in.A])
				}
				pc++
				continue

			case ir.OpBr:
				pc = int(in.Imm.Int())
				continue

			case ir.OpCondBr:
				taken := regs[in.A] != 0
				if full {
					m.recs.AppendCondBr(int32(f.Base+pc), in.Type, step,
						trace.RegLoc(fid, in.A), regs[in.A], taken)
				}
				if taken {
					pc = int(in.Imm.Int())
				} else {
					pc = int(in.Imm2.Int())
				}
				continue

			case ir.OpCall:
				callee := m.Prog.Funcs[in.Callee]
				m.frames++
				nfid := m.frames
				nregs := m.grabFrame(callee.NumRegs)
				for i, a := range in.Args {
					nregs[i] = regs[a]
					if full {
						m.recs.Append1(int32(f.Base+pc), ir.OpCall, in.Type, step,
							trace.RegLoc(nfid, ir.Reg(i)), regs[a],
							trace.RegLoc(fid, a), regs[a])
					}
				}
				if len(m.stack) >= m.MaxDepth {
					m.crash(steps, "call depth %d exceeded in %s", len(m.stack)+1, callee.Name)
				}
				top := &m.stack[len(m.stack)-1]
				top.pc = pc
				top.retFlip = flipDst
				if flipDst {
					top.retBit = m.Fault.Bit
				}
				top.retStep = step
				nfull := m.fullTrace(callee)
				m.stack = append(m.stack, frame{f: callee, fid: nfid, regs: nregs, full: nfull})
				continue frames

			case ir.OpHost:
				d := m.Prog.HostDecls[in.Callee]
				var argv [8]ir.Word
				args := argv[:0]
				for _, a := range in.Args {
					args = append(args, regs[a])
				}
				m.steps = steps
				ret, err := m.hosts[in.Callee](m, args)
				if err != nil {
					m.crash(steps, "host %s: %v", d.Name, err)
				}
				if d.HasRet {
					if flipDst {
						ret ^= ir.Word(1) << m.Fault.Bit
						m.FaultApplied = true
					}
					regs[in.Dst] = ret
					if full {
						if len(in.Args) > 0 {
							m.recs.Append1(int32(f.Base+pc), in.Op, in.Type, step,
								trace.RegLoc(fid, in.Dst), ret,
								trace.RegLoc(fid, in.Args[0]), regs[in.Args[0]])
						} else {
							m.recs.Append0(int32(f.Base+pc), in.Op, in.Type, step,
								trace.RegLoc(fid, in.Dst), ret)
						}
					}
				}
				pc++
				continue

			case ir.OpRet:
				var ret ir.Word
				hasRet := in.A != ir.NoReg
				if hasRet {
					ret = regs[in.A]
				}
				child := m.stack[len(m.stack)-1]
				m.stack = m.stack[:len(m.stack)-1]
				m.releaseFrame(child.regs)
				if len(m.stack) == 0 {
					m.steps = steps
					return false // entry returned: program complete
				}
				top := &m.stack[len(m.stack)-1]
				cin := &top.f.Code[top.pc]
				if cin.Dst != ir.NoReg && hasRet {
					v := ret
					if top.retFlip {
						v ^= ir.Word(1) << top.retBit
						m.FaultApplied = true
					}
					top.regs[cin.Dst] = v
					if top.full {
						m.recs.Append1(int32(top.f.Base+top.pc), ir.OpRet, cin.Type, top.retStep,
							trace.RegLoc(top.fid, cin.Dst), v,
							trace.RegLoc(child.fid, ir.Reg(0)), ret)
					}
				}
				top.pc++
				continue frames

			case ir.OpEmit, ir.OpEmitSci6:
				v = regs[in.A]
				sci := in.Op == ir.OpEmitSci6
				if sci {
					v = truncSci6(v)
				}
				if full {
					m.recs.Append1(int32(f.Base+pc), in.Op, in.Type, step,
						trace.OutLoc(len(m.output)), v,
						trace.RegLoc(fid, in.A), regs[in.A])
				}
				m.output = append(m.output, trace.OutVal{Val: v, Typ: in.Type, Sci6: sci})
				pc++
				continue

			case ir.OpRegionEnter, ir.OpRegionExit:
				if m.Mode != TraceOff {
					m.recs.AppendMarker(int32(f.Base+pc), in.Op, in.Type,
						int32(in.Imm.Int()), step)
				}
				pc++
				continue

			// Fused sequences (untraced frames only, so no records and no
			// fault: a fault's step is an event). The sub-instructions repeat
			// their plain handlers' semantics exactly.
			case ir.OpFuseConstAdd:
				regs[in.Dst] = in.Imm
				pc++
				if steps+1 <= next {
					add := &code[pc]
					regs[add.Dst] = ir.I64Word(regs[add.A].Int() + regs[add.B].Int())
					pc++
					steps++
				}
				continue

			case ir.OpFuseConstAddLoad:
				regs[in.Dst] = in.Imm
				pc++
				if steps+2 <= next {
					add, ld := &code[pc], &code[pc+1]
					regs[add.Dst] = ir.I64Word(regs[add.A].Int() + regs[add.B].Int())
					pc++
					steps++
					// A wild address stops the sequence before the load; the
					// plain handler then crashes at the load's own step.
					if addr := regs[ld.A].Int(); addr >= 0 && addr < memWords {
						regs[ld.Dst] = pages[addr>>pageShift][addr&pageMask]
						pc++
						steps++
					}
				}
				continue

			case ir.OpFuseConstAddStore:
				regs[in.Dst] = in.Imm
				pc++
				if steps+2 <= next {
					add, st := &code[pc], &code[pc+1]
					regs[add.Dst] = ir.I64Word(regs[add.A].Int() + regs[add.B].Int())
					pc++
					steps++
					if addr := regs[st.A].Int(); addr >= 0 && addr < memWords {
						pg := wpages[addr>>pageShift]
						if pg == nil {
							pg = m.mem.own(int(addr >> pageShift))
						}
						pg[addr&pageMask] = regs[st.B]
						pc++
						steps++
					}
				}
				continue

			case ir.OpFuseConstAddBr:
				regs[in.Dst] = in.Imm
				pc++
				if steps+2 <= next {
					add := &code[pc]
					regs[add.Dst] = ir.I64Word(regs[add.A].Int() + regs[add.B].Int())
					pc = int(code[pc+1].Imm.Int())
					steps += 2
				}
				continue

			case ir.OpFuseConstMulAdd:
				regs[in.Dst] = in.Imm
				pc++
				if steps+2 <= next {
					mul, add := &code[pc], &code[pc+1]
					regs[mul.Dst] = ir.I64Word(regs[mul.A].Int() * regs[mul.B].Int())
					regs[add.Dst] = ir.I64Word(regs[add.A].Int() + regs[add.B].Int())
					pc += 2
					steps += 2
				}
				continue

			case ir.OpFuseICmpSLTCondBr:
				regs[in.Dst] = boolWord(regs[in.A].Int() < regs[in.B].Int())
				pc++
				if steps+1 <= next {
					br := &code[pc]
					if regs[br.A] != 0 {
						pc = int(br.Imm.Int())
					} else {
						pc = int(br.Imm2.Int())
					}
					steps++
				}
				continue

			// The rest are register-to-register compute ops, unary or binary,
			// sharing the result tail below the switch.
			case ir.OpAdd:
				v = ir.I64Word(regs[in.A].Int() + regs[in.B].Int())
			case ir.OpSub:
				v = ir.I64Word(regs[in.A].Int() - regs[in.B].Int())
			case ir.OpMul:
				v = ir.I64Word(regs[in.A].Int() * regs[in.B].Int())
			case ir.OpSDiv:
				a, b := regs[in.A].Int(), regs[in.B].Int()
				if b == 0 || (a == math.MinInt64 && b == -1) {
					m.crash(steps, "integer division fault at sid %d", f.Base+pc)
				}
				v = ir.I64Word(a / b)
			case ir.OpSRem:
				a, b := regs[in.A].Int(), regs[in.B].Int()
				if b == 0 || (a == math.MinInt64 && b == -1) {
					m.crash(steps, "integer remainder fault at sid %d", f.Base+pc)
				}
				v = ir.I64Word(a % b)
			case ir.OpFAdd:
				v = ir.F64Word(regs[in.A].Float() + regs[in.B].Float())
			case ir.OpFSub:
				v = ir.F64Word(regs[in.A].Float() - regs[in.B].Float())
			case ir.OpFMul:
				v = ir.F64Word(regs[in.A].Float() * regs[in.B].Float())
			case ir.OpFDiv:
				v = ir.F64Word(regs[in.A].Float() / regs[in.B].Float())
			case ir.OpFNeg:
				v = ir.F64Word(-regs[in.A].Float())
			case ir.OpFAbs:
				v = ir.F64Word(math.Abs(regs[in.A].Float()))
			case ir.OpFSqrt:
				v = ir.F64Word(math.Sqrt(regs[in.A].Float()))
			case ir.OpShl:
				v = regs[in.A] << (uint64(regs[in.B]) & 63)
			case ir.OpLShr:
				v = regs[in.A] >> (uint64(regs[in.B]) & 63)
			case ir.OpAShr:
				v = ir.I64Word(regs[in.A].Int() >> (uint64(regs[in.B]) & 63))
			case ir.OpAnd:
				v = regs[in.A] & regs[in.B]
			case ir.OpOr:
				v = regs[in.A] | regs[in.B]
			case ir.OpXor:
				v = regs[in.A] ^ regs[in.B]
			case ir.OpICmpEQ:
				v = boolWord(regs[in.A] == regs[in.B])
			case ir.OpICmpNE:
				v = boolWord(regs[in.A] != regs[in.B])
			case ir.OpICmpSLT:
				v = boolWord(regs[in.A].Int() < regs[in.B].Int())
			case ir.OpICmpSLE:
				v = boolWord(regs[in.A].Int() <= regs[in.B].Int())
			case ir.OpICmpSGT:
				v = boolWord(regs[in.A].Int() > regs[in.B].Int())
			case ir.OpICmpSGE:
				v = boolWord(regs[in.A].Int() >= regs[in.B].Int())
			case ir.OpFCmpEQ:
				v = boolWord(regs[in.A].Float() == regs[in.B].Float())
			case ir.OpFCmpNE:
				v = boolWord(regs[in.A].Float() != regs[in.B].Float())
			case ir.OpFCmpLT:
				v = boolWord(regs[in.A].Float() < regs[in.B].Float())
			case ir.OpFCmpLE:
				v = boolWord(regs[in.A].Float() <= regs[in.B].Float())
			case ir.OpFCmpGT:
				v = boolWord(regs[in.A].Float() > regs[in.B].Float())
			case ir.OpFCmpGE:
				v = boolWord(regs[in.A].Float() >= regs[in.B].Float())
			case ir.OpSIToFP:
				v = ir.F64Word(float64(regs[in.A].Int()))
			case ir.OpFPToSI:
				v = fpToSI(regs[in.A].Float())
			case ir.OpFPTrunc:
				v = ir.F64Word(float64(float32(regs[in.A].Float())))
			case ir.OpTruncI32:
				v = ir.I64Word(int64(int32(regs[in.A].Int())))
			default:
				m.crash(steps, "unimplemented opcode %s at sid %d", in.Op, f.Base+pc)
			}
			if flipDst {
				v ^= ir.Word(1) << m.Fault.Bit
				m.FaultApplied = true
			}
			if full {
				// Operands are read before the result lands: Dst may alias A or B.
				if in.Op.IsBinary() {
					m.recs.Append2(int32(f.Base+pc), in.Op, in.Type, step,
						trace.RegLoc(fid, in.Dst), v,
						trace.RegLoc(fid, in.A), regs[in.A],
						trace.RegLoc(fid, in.B), regs[in.B])
				} else {
					m.recs.Append1(int32(f.Base+pc), in.Op, in.Type, step,
						trace.RegLoc(fid, in.Dst), v,
						trace.RegLoc(fid, in.A), regs[in.A])
				}
			}
			regs[in.Dst] = v
			pc++
		}
	}
}

func boolWord(b bool) ir.Word {
	if b {
		return 1
	}
	return 0
}

// fpToSI converts with x86 cvttsd2si semantics: NaN and out-of-range values
// become MinInt64 rather than trapping.
func fpToSI(f float64) ir.Word {
	if math.IsNaN(f) || f >= math.MaxInt64 || f <= math.MinInt64 {
		return ir.I64Word(math.MinInt64)
	}
	return ir.I64Word(int64(f))
}

// truncSci6 formats the float64 word with 6 significant decimal digits and
// parses it back — the exact information loss of printf("%12.6e"), the data
// truncation sink of resilience pattern 5.
func truncSci6(w ir.Word) ir.Word {
	f := w.Float()
	s := strconv.FormatFloat(f, 'e', 6, 64)
	g, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return w
	}
	return ir.F64Word(g)
}
