package ir

// Fused dispatch codes. Program.Seal decodes every function once into
// Function.Dispatch: the first instruction of each hot straight-line
// sequence gets the fused code of the longest sequence starting there, so
// the interpreter runs all k instructions of it in one dispatch; every other
// instruction keeps its own opcode. The sequences are the hottest opcode
// runs of the shipped workloads (internal/apps pins their coverage). Fused
// codes sit above the instruction set: they never appear in Function.Code,
// and Validate rejects them there.
const (
	// OpFuseConstAdd is const; add.
	OpFuseConstAdd Opcode = opcodeCount + iota
	// OpFuseConstAddLoad is const; add; load.
	OpFuseConstAddLoad
	// OpFuseConstAddStore is const; add; store.
	OpFuseConstAddStore
	// OpFuseConstAddBr is const; add; br.
	OpFuseConstAddBr
	// OpFuseConstMulAdd is const; mul; add.
	OpFuseConstMulAdd
	// OpFuseICmpSLTCondBr is icmp.slt; condbr.
	OpFuseICmpSLTCondBr

	fusedEnd // sentinel
)

// fused lists each fused code's instruction sequence.
var fused = [...][]Opcode{
	OpFuseConstAdd - opcodeCount:      {OpConst, OpAdd},
	OpFuseConstAddLoad - opcodeCount:  {OpConst, OpAdd, OpLoad},
	OpFuseConstAddStore - opcodeCount: {OpConst, OpAdd, OpStore},
	OpFuseConstAddBr - opcodeCount:    {OpConst, OpAdd, OpBr},
	OpFuseConstMulAdd - opcodeCount:   {OpConst, OpMul, OpAdd},
	OpFuseICmpSLTCondBr - opcodeCount: {OpICmpSLT, OpCondBr},
}

// Fused returns the instruction sequence a fused code stands for, or nil
// for an instruction opcode. The slice is shared: do not modify it.
func (op Opcode) Fused() []Opcode {
	if op < opcodeCount || op >= fusedEnd {
		return nil
	}
	return fused[op-opcodeCount]
}

// decode fills f.Dispatch: the longest fused sequence that starts at each
// instruction and runs straight through the following ones, else the
// instruction's own opcode.
func (f *Function) decode() {
	f.Dispatch = make([]Opcode, len(f.Code))
	for i := range f.Code {
		f.Dispatch[i] = f.Code[i].Op
		best := 0
		for j, seq := range fused {
			if len(seq) > best && f.startsWith(i, seq) {
				f.Dispatch[i], best = opcodeCount+Opcode(j), len(seq)
			}
		}
	}
}

// startsWith reports whether f.Code[i:] begins with the opcodes of seq.
func (f *Function) startsWith(i int, seq []Opcode) bool {
	if i+len(seq) > len(f.Code) {
		return false
	}
	for k, op := range seq {
		if f.Code[i+k].Op != op {
			return false
		}
	}
	return true
}
