package ir

import "fmt"

// This file upgrades Validate from structural to semantic checking over the
// control-flow facts in flow.go. Three properties are enforced on every
// function:
//
//  1. No unreachable code. Instructions no path from the entry can execute
//     are dead weight and usually a builder bug (a branch over real work).
//     Unconditional branches, nops and returns are tolerated, since the
//     structured-control-flow builder legitimately emits them as padding
//     after an arm that returns early.
//  2. Definite assignment: every register read is preceded by a write on
//     every path from the entry (parameters count as written). The
//     interpreter zero-fills frames, so violations execute deterministically
//     — but a read of an unwritten register is always an app-construction
//     bug, and it would silently undermine dataflow-based fault pruning.
//  3. Branch-consistent region markers: every instruction executes at one
//     well-defined region depth no matter which path reached it, no exit
//     ever underflows, and returns only happen outside all regions. The old
//     linear depth scan accepted marker pairings that diverged across
//     branches; trace region accounting assumes they cannot.

// validateSemanticFunc runs the dataflow checks. It assumes validateFunc
// passed (all indices in range).
func (p *Program) validateSemanticFunc(f *Function) error {
	n := len(f.Code)
	fail := func(i int, format string, args ...any) error {
		return fmt.Errorf("instr %d (%s): %s", i, f.Code[i], fmt.Sprintf(format, args...))
	}

	reach := f.Reachable()

	// 1. Unreachable code (modulo builder padding).
	for i := range f.Code {
		if reach[i] {
			continue
		}
		switch f.Code[i].Op {
		case OpBr, OpNop, OpRet:
			// Structured-control-flow padding: e.g. the join branch emitted
			// after an If arm that returns.
		default:
			return fail(i, "unreachable")
		}
	}

	// 2. Definite assignment: intersection (must) dataflow over the
	// reachable instructions. assigned[i] holds the registers written on
	// every path up to (but excluding) instruction i; the entry starts with
	// the parameters, everything else at top.
	words := (f.NumRegs + 63) / 64
	top := make([]uint64, words)
	for r := 0; r < f.NumRegs; r++ {
		top[r>>6] |= 1 << (uint(r) & 63)
	}
	assigned := make([][]uint64, n)
	for i := 0; i < n; i++ {
		if !reach[i] {
			continue
		}
		assigned[i] = make([]uint64, words)
		copy(assigned[i], top)
	}
	if n > 0 {
		for j := range assigned[0] {
			assigned[0][j] = 0
		}
		for a := 0; a < f.NumArgs; a++ {
			assigned[0][a>>6] |= 1 << (uint(a) & 63)
		}
	}
	out := make([]uint64, words)
	var succBuf [2]int
	for changed := true; changed; {
		changed = false
		for i := 0; i < n; i++ {
			if !reach[i] {
				continue
			}
			copy(out, assigned[i])
			if d, ok := f.Code[i].Def(); ok {
				out[d>>6] |= 1 << (uint(d) & 63)
			}
			for _, s := range f.Succs(i, succBuf[:0]) {
				for j := range out {
					if nw := assigned[s][j] & out[j]; nw != assigned[s][j] {
						assigned[s][j] = nw
						changed = true
					}
				}
			}
		}
	}
	var useBuf [4]Reg
	for i := 0; i < n; i++ {
		if !reach[i] {
			continue
		}
		for _, r := range f.Code[i].uses(useBuf[:0]) {
			if r == NoReg {
				continue
			}
			if assigned[i][r>>6]&(1<<(uint(r)&63)) == 0 {
				return fail(i, "r%d may be read before assignment", r)
			}
		}
	}

	// 3. Branch-consistent region depth. Propagate the depth each
	// instruction executes at; a conflict means some path pairs markers
	// differently than another.
	depth := make([]int, n)
	for i := range depth {
		depth[i] = -1
	}
	depth[0] = 0
	stack := []int{0}
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		d := depth[i]
		switch f.Code[i].Op {
		case OpRegionEnter:
			d++
		case OpRegionExit:
			if d == 0 {
				return fail(i, "region exit without matching enter on some path")
			}
			d--
		case OpRet:
			if d != 0 {
				return fail(i, "return inside region (depth %d)", d)
			}
		}
		for _, s := range f.Succs(i, succBuf[:0]) {
			switch depth[s] {
			case -1:
				depth[s] = d
				stack = append(stack, s)
			case d:
			default:
				return fail(s, "inconsistent region depth across paths (%d vs %d)", depth[s], d)
			}
		}
	}
	return nil
}
