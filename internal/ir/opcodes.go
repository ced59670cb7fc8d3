// Package ir defines the intermediate representation that FlipTracker
// analyzes. It is the stand-in for LLVM IR in the original paper: a typed
// register machine with a flat word-addressed memory, explicit basic-block
// control flow flattened to branch targets, host-call escape hatches, and
// region markers that delineate the loop-based code regions of the
// application model (paper §III-A).
//
// Programs are constructed with a Builder (see builder.go), validated
// (validate.go), and executed by package interp, which emits the dynamic
// instruction traces every analysis consumes.
package ir

import "fmt"

// Opcode enumerates every instruction the IR supports. The set mirrors the
// LLVM subset that LLVM-Tracer instruments in the paper: integer and float
// arithmetic, bitwise and shift operations, comparisons, conversions
// (including the truncations behind resilience pattern 5), loads/stores,
// control flow, calls, and the tracing markers FlipTracker adds.
type Opcode uint8

const (
	// OpNop does nothing. Used as a patch placeholder.
	OpNop Opcode = iota

	// OpConst writes the immediate Imm into Dst. Type carries I64/F64.
	OpConst

	// Integer arithmetic (two's complement on int64).
	OpAdd
	OpSub
	OpMul
	OpSDiv // crashes the run on division by zero (models SIGFPE)
	OpSRem // crashes the run on division by zero

	// Floating-point arithmetic on float64.
	OpFAdd
	OpFSub
	OpFMul
	OpFDiv // produces ±Inf/NaN on zero divisors, like hardware
	OpFNeg
	OpFAbs
	OpFSqrt

	// Bitwise and shift operations (pattern 4 "Shifting" lives here).
	OpShl
	OpLShr
	OpAShr
	OpAnd
	OpOr
	OpXor

	// Integer comparisons; Dst receives 0 or 1.
	OpICmpEQ
	OpICmpNE
	OpICmpSLT
	OpICmpSLE
	OpICmpSGT
	OpICmpSGE

	// Float comparisons; Dst receives 0 or 1.
	OpFCmpEQ
	OpFCmpNE
	OpFCmpLT
	OpFCmpLE
	OpFCmpGT
	OpFCmpGE

	// Conversions.
	OpSIToFP   // int64 -> float64
	OpFPToSI   // float64 -> int64 (crash on NaN/overflow, like UB traps)
	OpFPTrunc  // float64 -> float32 -> float64 (mantissa truncation)
	OpTruncI32 // keep low 32 bits, sign-extend (the Table III truncation)

	// Memory. Addresses are word indices into the program memory.
	OpLoad  // Dst <- mem[reg A]
	OpStore // mem[reg A] <- reg B

	// Control flow over the flattened instruction array.
	OpBr     // jump to Imm
	OpCondBr // if reg A != 0 jump to Imm else to Imm2
	OpCall   // call function Callee with Args; result (if any) in Dst
	OpHost   // call host function Callee with Args; result in Dst
	OpRet    // return reg A (or nothing if A == NoReg)

	// Output. Emitting is how programs report results; the Sci6 format
	// reproduces the "%12.6e" truncation of LULESH (pattern 5).
	OpEmit     // append full-precision value of reg A to the output
	OpEmitSci6 // append value of reg A truncated to 6 significant digits

	// Tracing markers inserted by the builder around code regions.
	OpRegionEnter // Imm = region id
	OpRegionExit  // Imm = region id

	opcodeCount // sentinel
)

var opcodeNames = [...]string{
	OpNop: "nop", OpConst: "const",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpSDiv: "sdiv", OpSRem: "srem",
	OpFAdd: "fadd", OpFSub: "fsub", OpFMul: "fmul", OpFDiv: "fdiv",
	OpFNeg: "fneg", OpFAbs: "fabs", OpFSqrt: "fsqrt",
	OpShl: "shl", OpLShr: "lshr", OpAShr: "ashr",
	OpAnd: "and", OpOr: "or", OpXor: "xor",
	OpICmpEQ: "icmp.eq", OpICmpNE: "icmp.ne", OpICmpSLT: "icmp.slt",
	OpICmpSLE: "icmp.sle", OpICmpSGT: "icmp.sgt", OpICmpSGE: "icmp.sge",
	OpFCmpEQ: "fcmp.eq", OpFCmpNE: "fcmp.ne", OpFCmpLT: "fcmp.lt",
	OpFCmpLE: "fcmp.le", OpFCmpGT: "fcmp.gt", OpFCmpGE: "fcmp.ge",
	OpSIToFP: "sitofp", OpFPToSI: "fptosi", OpFPTrunc: "fptrunc",
	OpTruncI32: "trunc.i32",
	OpLoad:     "load", OpStore: "store",
	OpBr: "br", OpCondBr: "condbr", OpCall: "call", OpHost: "host",
	OpRet: "ret", OpEmit: "emit", OpEmitSci6: "emit.sci6",
	OpRegionEnter: "region.enter", OpRegionExit: "region.exit",
}

// String returns the mnemonic for the opcode.
func (op Opcode) String() string {
	if int(op) < len(opcodeNames) && opcodeNames[op] != "" {
		return opcodeNames[op]
	}
	if seq := op.Fused(); seq != nil {
		name := seq[0].String()
		for _, o := range seq[1:] {
			name += "+" + o.String()
		}
		return name
	}
	return fmt.Sprintf("opcode(%d)", uint8(op))
}

// IsBinary reports whether the opcode consumes two register operands A and B.
func (op Opcode) IsBinary() bool {
	switch op {
	case OpAdd, OpSub, OpMul, OpSDiv, OpSRem,
		OpFAdd, OpFSub, OpFMul, OpFDiv,
		OpShl, OpLShr, OpAShr, OpAnd, OpOr, OpXor,
		OpICmpEQ, OpICmpNE, OpICmpSLT, OpICmpSLE, OpICmpSGT, OpICmpSGE,
		OpFCmpEQ, OpFCmpNE, OpFCmpLT, OpFCmpLE, OpFCmpGT, OpFCmpGE:
		return true
	}
	return false
}

// IsUnary reports whether the opcode consumes exactly one register operand A
// and produces a value in Dst.
func (op Opcode) IsUnary() bool {
	switch op {
	case OpFNeg, OpFAbs, OpFSqrt, OpSIToFP, OpFPToSI, OpFPTrunc, OpTruncI32, OpLoad:
		return true
	}
	return false
}

// IsCompare reports whether the opcode is an integer or float comparison.
// Comparisons feed conditional branches, which is where resilience pattern 3
// (conditional statements) is detected.
func (op Opcode) IsCompare() bool {
	return op >= OpICmpEQ && op <= OpFCmpGE
}

// IsFloat reports whether the opcode produces a float64-typed result.
func (op Opcode) IsFloat() bool {
	switch op {
	case OpFAdd, OpFSub, OpFMul, OpFDiv, OpFNeg, OpFAbs, OpFSqrt, OpSIToFP, OpFPTrunc:
		return true
	}
	return false
}

// HasDst reports whether the opcode writes a register destination.
func (op Opcode) HasDst() bool {
	switch op {
	case OpConst, OpCall, OpHost:
		return true
	}
	return op.IsBinary() || op.IsUnary()
}

// IsTerminator reports whether the opcode ends a basic block.
func (op Opcode) IsTerminator() bool {
	switch op {
	case OpBr, OpCondBr, OpRet:
		return true
	}
	return false
}
