package ir

import "fmt"

// Label identifies a forward-referenceable position in a function under
// construction.
type Label int

type patch struct {
	instr int
	imm2  bool // patch Imm2 instead of Imm
	label Label
}

// FuncBuilder incrementally constructs one Function. The helpers mirror how
// the paper's C benchmarks are written: nested counted loops over global
// arrays, with code-region markers wrapped around first-level inner loops.
type FuncBuilder struct {
	p       *Program
	f       *Function
	nextReg int
	labels  []int // label -> resolved instruction index, -1 if pending
	patches []patch
	line    int32
	done    bool
}

// NewFunc starts building a function with numArgs parameters. Parameters
// occupy registers 0..numArgs-1.
func (p *Program) NewFunc(name string, numArgs int) *FuncBuilder {
	if p.sealed {
		panic("ir: NewFunc after Seal")
	}
	if _, dup := p.FuncByName[name]; dup {
		panic(fmt.Sprintf("ir: duplicate function %q", name))
	}
	f := &Function{Name: name, NumArgs: numArgs, Index: len(p.Funcs)}
	p.Funcs = append(p.Funcs, f)
	p.FuncByName[name] = f
	return &FuncBuilder{p: p, f: f, nextReg: numArgs, line: 1}
}

// Program returns the program this builder appends to.
func (b *FuncBuilder) Program() *Program { return b.p }

// Arg returns the register holding parameter i.
func (b *FuncBuilder) Arg(i int) Reg {
	if i < 0 || i >= b.f.NumArgs {
		panic(fmt.Sprintf("ir: arg %d out of range for %q", i, b.f.Name))
	}
	return Reg(i)
}

// NewReg allocates a fresh virtual register.
func (b *FuncBuilder) NewReg() Reg {
	r := Reg(b.nextReg)
	b.nextReg++
	return r
}

// SetLine sets the pseudo source line attached to subsequently emitted
// instructions. Apps use this to mimic the paper's Table I line ranges.
func (b *FuncBuilder) SetLine(n int) { b.line = int32(n) }

func (b *FuncBuilder) emit(in Instr) int {
	if b.done {
		panic("ir: emit after Done")
	}
	in.Line = b.line
	b.f.Code = append(b.f.Code, in)
	return len(b.f.Code) - 1
}

// --- constants and moves ---

// ConstI materializes an int64 constant in a fresh register.
func (b *FuncBuilder) ConstI(v int64) Reg {
	d := b.NewReg()
	b.emit(Instr{Op: OpConst, Type: I64, Dst: d, Imm: I64Word(v), A: NoReg, B: NoReg})
	return d
}

// ConstF materializes a float64 constant in a fresh register.
func (b *FuncBuilder) ConstF(v float64) Reg {
	d := b.NewReg()
	b.emit(Instr{Op: OpConst, Type: F64, Dst: d, Imm: F64Word(v), A: NoReg, B: NoReg})
	return d
}

// ConstITo writes an int64 constant into an existing register.
func (b *FuncBuilder) ConstITo(dst Reg, v int64) {
	b.emit(Instr{Op: OpConst, Type: I64, Dst: dst, Imm: I64Word(v), A: NoReg, B: NoReg})
}

// ConstFTo writes a float64 constant into an existing register.
func (b *FuncBuilder) ConstFTo(dst Reg, v float64) {
	b.emit(Instr{Op: OpConst, Type: F64, Dst: dst, Imm: F64Word(v), A: NoReg, B: NoReg})
}

// --- generic op emitters ---

// Bin emits a binary op into a fresh register.
func (b *FuncBuilder) Bin(op Opcode, a, c Reg) Reg {
	if !op.IsBinary() {
		panic("ir: Bin with non-binary opcode " + op.String())
	}
	d := b.NewReg()
	b.BinTo(op, d, a, c)
	return d
}

// BinTo emits a binary op into dst. Writing into a named, long-lived register
// (e.g. an accumulator) is how apps express the repeated-additions pattern.
func (b *FuncBuilder) BinTo(op Opcode, dst, a, c Reg) {
	t := I64
	if op.IsFloat() {
		t = F64
	}
	b.emit(Instr{Op: op, Type: t, Dst: dst, A: a, B: c})
}

// Un emits a unary op into a fresh register.
func (b *FuncBuilder) Un(op Opcode, a Reg) Reg {
	if !op.IsUnary() {
		panic("ir: Un with non-unary opcode " + op.String())
	}
	d := b.NewReg()
	b.UnTo(op, d, a)
	return d
}

// UnTo emits a unary op into dst.
func (b *FuncBuilder) UnTo(op Opcode, dst, a Reg) {
	t := I64
	if op.IsFloat() {
		t = F64
	}
	b.emit(Instr{Op: op, Type: t, Dst: dst, A: a, B: NoReg})
}

// Convenience wrappers for the common operations.

func (b *FuncBuilder) Add(a, c Reg) Reg  { return b.Bin(OpAdd, a, c) }
func (b *FuncBuilder) Sub(a, c Reg) Reg  { return b.Bin(OpSub, a, c) }
func (b *FuncBuilder) Mul(a, c Reg) Reg  { return b.Bin(OpMul, a, c) }
func (b *FuncBuilder) SDiv(a, c Reg) Reg { return b.Bin(OpSDiv, a, c) }
func (b *FuncBuilder) SRem(a, c Reg) Reg { return b.Bin(OpSRem, a, c) }
func (b *FuncBuilder) FAdd(a, c Reg) Reg { return b.Bin(OpFAdd, a, c) }
func (b *FuncBuilder) FSub(a, c Reg) Reg { return b.Bin(OpFSub, a, c) }
func (b *FuncBuilder) FMul(a, c Reg) Reg { return b.Bin(OpFMul, a, c) }
func (b *FuncBuilder) FDiv(a, c Reg) Reg { return b.Bin(OpFDiv, a, c) }
func (b *FuncBuilder) Shl(a, c Reg) Reg  { return b.Bin(OpShl, a, c) }
func (b *FuncBuilder) LShr(a, c Reg) Reg { return b.Bin(OpLShr, a, c) }
func (b *FuncBuilder) AShr(a, c Reg) Reg { return b.Bin(OpAShr, a, c) }
func (b *FuncBuilder) And(a, c Reg) Reg  { return b.Bin(OpAnd, a, c) }
func (b *FuncBuilder) Or(a, c Reg) Reg   { return b.Bin(OpOr, a, c) }
func (b *FuncBuilder) Xor(a, c Reg) Reg  { return b.Bin(OpXor, a, c) }

func (b *FuncBuilder) FNeg(a Reg) Reg     { return b.Un(OpFNeg, a) }
func (b *FuncBuilder) FAbs(a Reg) Reg     { return b.Un(OpFAbs, a) }
func (b *FuncBuilder) FSqrt(a Reg) Reg    { return b.Un(OpFSqrt, a) }
func (b *FuncBuilder) SIToFP(a Reg) Reg   { return b.Un(OpSIToFP, a) }
func (b *FuncBuilder) FPToSI(a Reg) Reg   { return b.Un(OpFPToSI, a) }
func (b *FuncBuilder) FPTrunc(a Reg) Reg  { return b.Un(OpFPTrunc, a) }
func (b *FuncBuilder) TruncI32(a Reg) Reg { return b.Un(OpTruncI32, a) }

// AddI adds an immediate to a register.
func (b *FuncBuilder) AddI(a Reg, v int64) Reg { return b.Add(a, b.ConstI(v)) }

// MulI multiplies a register by an immediate.
func (b *FuncBuilder) MulI(a Reg, v int64) Reg { return b.Mul(a, b.ConstI(v)) }

// MovI copies an integer-typed register value.
func (b *FuncBuilder) MovI(a Reg) Reg { return b.Or(a, a) }

// MovITo copies an integer-typed register value into dst.
func (b *FuncBuilder) MovITo(dst, a Reg) { b.BinTo(OpOr, dst, a, a) }

// MovF copies a float-typed register value (bit-exact: or of identical bits).
func (b *FuncBuilder) MovF(a Reg) Reg { return b.Or(a, a) }

// MovFTo copies a float-typed register into dst (bit-exact).
func (b *FuncBuilder) MovFTo(dst, a Reg) { b.BinTo(OpOr, dst, a, a) }

// --- memory ---

// Load reads mem[addr] into a fresh register of type t.
func (b *FuncBuilder) Load(t Type, addr Reg) Reg {
	d := b.NewReg()
	b.emit(Instr{Op: OpLoad, Type: t, Dst: d, A: addr, B: NoReg})
	return d
}

// Store writes val to mem[addr].
func (b *FuncBuilder) Store(addr, val Reg) {
	b.emit(Instr{Op: OpStore, Dst: NoReg, A: addr, B: val})
}

// Addr computes &g[idx] into a fresh register.
func (b *FuncBuilder) Addr(g Global, idx Reg) Reg {
	return b.Add(b.ConstI(g.Addr), idx)
}

// AddrI computes &g[i] for a constant index.
func (b *FuncBuilder) AddrI(g Global, i int64) Reg {
	return b.ConstI(g.Addr + i)
}

// LoadG reads g[idx].
func (b *FuncBuilder) LoadG(g Global, idx Reg) Reg {
	return b.Load(g.Type, b.Addr(g, idx))
}

// LoadGI reads g[i] for a constant index.
func (b *FuncBuilder) LoadGI(g Global, i int64) Reg {
	return b.Load(g.Type, b.AddrI(g, i))
}

// StoreG writes g[idx] = val.
func (b *FuncBuilder) StoreG(g Global, idx Reg, val Reg) {
	b.Store(b.Addr(g, idx), val)
}

// StoreGI writes g[i] = val for a constant index.
func (b *FuncBuilder) StoreGI(g Global, i int64, val Reg) {
	b.Store(b.AddrI(g, i), val)
}

// --- comparisons ---

func (b *FuncBuilder) ICmp(op Opcode, a, c Reg) Reg { return b.Bin(op, a, c) }
func (b *FuncBuilder) FCmp(op Opcode, a, c Reg) Reg { return b.Bin(op, a, c) }

// --- control flow ---

// NewLabel creates an unbound label.
func (b *FuncBuilder) NewLabel() Label {
	b.labels = append(b.labels, -1)
	return Label(len(b.labels) - 1)
}

// Bind attaches a label to the next instruction to be emitted.
func (b *FuncBuilder) Bind(l Label) {
	if b.labels[l] != -1 {
		panic("ir: label bound twice")
	}
	b.labels[l] = len(b.f.Code)
}

// Br emits an unconditional jump to l.
func (b *FuncBuilder) Br(l Label) {
	i := b.emit(Instr{Op: OpBr, Dst: NoReg, A: NoReg, B: NoReg})
	b.patches = append(b.patches, patch{instr: i, label: l})
}

// CondBr jumps to then when cond != 0, otherwise to els.
func (b *FuncBuilder) CondBr(cond Reg, then, els Label) {
	i := b.emit(Instr{Op: OpCondBr, Dst: NoReg, A: cond, B: NoReg})
	b.patches = append(b.patches, patch{instr: i, label: then})
	b.patches = append(b.patches, patch{instr: i, label: els, imm2: true})
}

// If runs then when cond != 0. The conditional-statement resilience pattern
// (pattern 3) is the dynamic behaviour of the CondBr this emits.
func (b *FuncBuilder) If(cond Reg, then func()) {
	lThen, lEnd := b.NewLabel(), b.NewLabel()
	b.CondBr(cond, lThen, lEnd)
	b.Bind(lThen)
	then()
	b.Br(lEnd)
	b.Bind(lEnd)
}

// IfElse runs then when cond != 0, otherwise els.
func (b *FuncBuilder) IfElse(cond Reg, then, els func()) {
	lThen, lEls, lEnd := b.NewLabel(), b.NewLabel(), b.NewLabel()
	b.CondBr(cond, lThen, lEls)
	b.Bind(lThen)
	then()
	b.Br(lEnd)
	b.Bind(lEls)
	els()
	b.Br(lEnd)
	b.Bind(lEnd)
}

// For emits a counted loop: for i = start; i < limit; i += step { body(i) }.
// start and limit are registers so loops can be data-dependent; step is a
// compile-time constant. The loop variable register is passed to body.
func (b *FuncBuilder) For(start, limit Reg, step int64, body func(i Reg)) {
	i := b.NewReg()
	b.MovITo(i, start)
	lHead, lBody, lEnd := b.NewLabel(), b.NewLabel(), b.NewLabel()
	b.Br(lHead)
	b.Bind(lHead)
	c := b.ICmp(OpICmpSLT, i, limit)
	b.CondBr(c, lBody, lEnd)
	b.Bind(lBody)
	body(i)
	stepR := b.ConstI(step)
	b.BinTo(OpAdd, i, i, stepR)
	b.Br(lHead)
	b.Bind(lEnd)
}

// ForI is For with constant bounds.
func (b *FuncBuilder) ForI(start, limit int64, body func(i Reg)) {
	b.For(b.ConstI(start), b.ConstI(limit), 1, body)
}

// While emits: for { if cond()==0 break; body() }.
func (b *FuncBuilder) While(cond func() Reg, body func()) {
	lHead, lBody, lEnd := b.NewLabel(), b.NewLabel(), b.NewLabel()
	b.Br(lHead)
	b.Bind(lHead)
	c := cond()
	b.CondBr(c, lBody, lEnd)
	b.Bind(lBody)
	body()
	b.Br(lHead)
	b.Bind(lEnd)
}

// --- regions ---

// Region wraps body in RegionEnter/RegionExit markers for a fresh region
// named name. Returns the region id.
func (b *FuncBuilder) Region(name string, body func()) int {
	return b.region(name, false, body)
}

// MainLoopRegion marks the whole main loop as a single pseudo region, used by
// the paper's per-iteration study (§V-C): each iteration of the main loop is
// one instance of this region.
func (b *FuncBuilder) MainLoopRegion(name string, body func()) int {
	return b.region(name, true, body)
}

func (b *FuncBuilder) region(name string, mainLoop bool, body func()) int {
	var id int
	if r, ok := b.p.RegionByName(name); ok {
		id = r.ID
	} else {
		id = b.p.AddRegion(name, mainLoop)
	}
	b.p.Regions[id].FirstLine = b.line
	b.emit(Instr{Op: OpRegionEnter, Dst: NoReg, A: NoReg, B: NoReg, Imm: I64Word(int64(id))})
	body()
	b.p.Regions[id].LastLine = b.line
	b.emit(Instr{Op: OpRegionExit, Dst: NoReg, A: NoReg, B: NoReg, Imm: I64Word(int64(id))})
	return id
}

// --- calls, returns, output ---

// Call invokes the named IR function (which may be declared later; resolution
// happens at Done/Seal time by name lookup then, so the callee must exist by
// the time this builder finishes). Returns the result register.
func (b *FuncBuilder) Call(name string, args ...Reg) Reg {
	callee, ok := b.p.FuncByName[name]
	if !ok {
		panic(fmt.Sprintf("ir: call to undefined function %q (define callees first)", name))
	}
	if callee.NumArgs != len(args) {
		panic(fmt.Sprintf("ir: call %q with %d args, want %d", name, len(args), callee.NumArgs))
	}
	d := b.NewReg()
	b.emit(Instr{Op: OpCall, Type: F64, Dst: d, A: NoReg, B: NoReg,
		Callee: int32(callee.Index), Args: append([]Reg(nil), args...)})
	return d
}

// Host invokes a host function.
func (b *FuncBuilder) Host(name string, numArgs int, hasRet bool, args ...Reg) Reg {
	if len(args) != numArgs {
		panic(fmt.Sprintf("ir: host %q with %d args, want %d", name, len(args), numArgs))
	}
	idx := b.p.DeclareHost(name, numArgs, hasRet)
	d := NoReg
	if hasRet {
		d = b.NewReg()
	}
	b.emit(Instr{Op: OpHost, Type: I64, Dst: d, A: NoReg, B: NoReg,
		Callee: int32(idx), Args: append([]Reg(nil), args...)})
	return d
}

// Ret returns val from the function.
func (b *FuncBuilder) Ret(val Reg) { b.emit(Instr{Op: OpRet, Dst: NoReg, A: val, B: NoReg}) }

// RetVoid returns without a value.
func (b *FuncBuilder) RetVoid() { b.emit(Instr{Op: OpRet, Dst: NoReg, A: NoReg, B: NoReg}) }

// Emit appends the full-precision value of val to the program output.
func (b *FuncBuilder) Emit(t Type, val Reg) {
	b.emit(Instr{Op: OpEmit, Type: t, Dst: NoReg, A: val, B: NoReg})
}

// EmitSci6 appends val formatted to 6 significant decimal digits, the
// "%12.6e" data-truncation sink of pattern 5.
func (b *FuncBuilder) EmitSci6(val Reg) {
	b.emit(Instr{Op: OpEmitSci6, Type: F64, Dst: NoReg, A: val, B: NoReg})
}

// Done finalizes the function: resolves labels and records the frame size.
func (b *FuncBuilder) Done() *Function {
	if b.done {
		return b.f
	}
	// A function must end with a terminator, and no label may point past
	// the end of the code; an implicit ret fixes both.
	needRet := len(b.f.Code) == 0 || !b.f.Code[len(b.f.Code)-1].Op.IsTerminator()
	for _, tgt := range b.labels {
		if tgt == len(b.f.Code) {
			needRet = true
		}
	}
	if needRet {
		b.RetVoid()
	}
	for _, pt := range b.patches {
		tgt := b.labels[pt.label]
		if tgt < 0 {
			panic(fmt.Sprintf("ir: unbound label %d in %q", pt.label, b.f.Name))
		}
		if pt.imm2 {
			b.f.Code[pt.instr].Imm2 = I64Word(int64(tgt))
		} else {
			b.f.Code[pt.instr].Imm = I64Word(int64(tgt))
		}
	}
	b.f.NumRegs = b.nextReg
	b.done = true
	return b.f
}
