package ir

import (
	"fmt"
	"strings"
)

// Disassemble renders the whole program as text, one function at a time,
// annotating each instruction with its global static id. Useful for
// debugging app construction and for cross-referencing fault-injection
// reports (which identify targets by static id).
func (p *Program) Disassemble() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "program %q: %d funcs, %d globals, %d regions, %d mem words\n",
		p.Name, len(p.Funcs), len(p.Globals), len(p.Regions), p.MemWords)
	for _, g := range p.Globals {
		fmt.Fprintf(&sb, "  global %-16s %s[%d] @%d\n", g.Name, g.Type, g.Words, g.Addr)
	}
	for _, r := range p.Regions {
		kind := "region"
		if r.MainLoop {
			kind = "main-loop"
		}
		fmt.Fprintf(&sb, "  %-9s #%d %-10s lines %d-%d\n", kind, r.ID, r.Name, r.FirstLine, r.LastLine)
	}
	for _, f := range p.Funcs {
		fmt.Fprintf(&sb, "func %s(%d args) [%d regs]\n", f.Name, f.NumArgs, f.NumRegs)
		for i, in := range f.Code {
			fmt.Fprintf(&sb, "  %5d| %3d: %s\n", f.Base+i, i, in)
		}
	}
	return sb.String()
}

// DisassembleFunc renders a single function.
func (p *Program) DisassembleFunc(name string) (string, bool) {
	f, ok := p.FuncByName[name]
	if !ok {
		return "", false
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "func %s(%d args) [%d regs]\n", f.Name, f.NumArgs, f.NumRegs)
	for i, in := range f.Code {
		fmt.Fprintf(&sb, "  %5d| %3d: %s\n", f.Base+i, i, in)
	}
	return sb.String(), true
}
