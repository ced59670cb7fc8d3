package ir

import "fmt"

// Function is a flattened sequence of instructions with branch targets
// resolved to instruction offsets within the function.
type Function struct {
	Name    string
	Index   int // position in Program.Funcs
	NumArgs int // arguments arrive in registers 0..NumArgs-1
	NumRegs int // total frame size in registers
	Code    []Instr
	// Base is the global static id of Code[0]; instruction i in this
	// function has global static id Base+i. Assigned by Program.Seal.
	Base int
	// Dispatch is Code decoded for untraced execution, filled in by
	// Program.Seal: Dispatch[i] is a fused code when a hot sequence starts
	// at Code[i] (see fuse.go), else Code[i].Op.
	Dispatch []Opcode
}

// Global describes a named span of program memory, the analog of a C global
// array in the paper's benchmarks. FlipTracker's region analysis reports
// corrupted locations by global name + element index.
type Global struct {
	Name  string
	Addr  int64 // first word
	Words int64
	Type  Type
}

// HostDecl declares a host (native Go) function callable from IR, used for
// the MPI simulator, random number sources and timers — the pieces the paper
// gets from the MPI runtime and libc, which LLVM-Tracer deliberately does not
// instrument (§IV-A).
type HostDecl struct {
	Name    string
	NumArgs int
	HasRet  bool
}

// Region describes a code region (paper §III-A): a first-level inner loop or
// the straight-line block between two neighboring loops, identified by a
// small integer id embedded in RegionEnter/RegionExit markers.
type Region struct {
	ID        int
	Name      string // e.g. "cg_b"
	FirstLine int32
	LastLine  int32
	MainLoop  bool // true for the whole-main-loop pseudo region (per-iteration study)
}

// Program is a complete IR module: functions, globals, host declarations and
// the region table. Programs are immutable after Seal.
type Program struct {
	Name       string
	Funcs      []*Function
	FuncByName map[string]*Function
	Globals    []Global
	globalsBy  map[string]int
	HostDecls  []HostDecl
	hostBy     map[string]int
	Regions    []Region
	MemWords   int64 // total memory footprint in 64-bit words
	Entry      *Function
	sealed     bool
	// TotalInstrs is the number of static instructions across all
	// functions; global static ids are in [0, TotalInstrs).
	TotalInstrs int
}

// NewProgram returns an empty program with the given name.
func NewProgram(name string) *Program {
	return &Program{
		Name:       name,
		FuncByName: make(map[string]*Function),
		globalsBy:  make(map[string]int),
		hostBy:     make(map[string]int),
	}
}

// AllocGlobal reserves words of memory for a named global array and returns
// its descriptor. Word 0 is reserved so that address 0 can act as a trap
// value (a corrupted pointer that lands there still reads/writes validly but
// never aliases program data).
func (p *Program) AllocGlobal(name string, words int64, t Type) Global {
	if p.sealed {
		panic("ir: AllocGlobal after Seal")
	}
	if words <= 0 {
		panic(fmt.Sprintf("ir: global %q with %d words", name, words))
	}
	if _, dup := p.globalsBy[name]; dup {
		panic(fmt.Sprintf("ir: duplicate global %q", name))
	}
	if p.MemWords == 0 {
		p.MemWords = 1 // reserve word 0
	}
	g := Global{Name: name, Addr: p.MemWords, Words: words, Type: t}
	p.MemWords += words
	p.globalsBy[name] = len(p.Globals)
	p.Globals = append(p.Globals, g)
	return g
}

// GlobalByName returns the named global and whether it exists.
func (p *Program) GlobalByName(name string) (Global, bool) {
	i, ok := p.globalsBy[name]
	if !ok {
		return Global{}, false
	}
	return p.Globals[i], true
}

// GlobalAt returns the global containing word addr, if any.
func (p *Program) GlobalAt(addr int64) (Global, bool) {
	for _, g := range p.Globals {
		if addr >= g.Addr && addr < g.Addr+g.Words {
			return g, true
		}
	}
	return Global{}, false
}

// DeclareHost registers a host function name with the given arity and returns
// its callee index.
func (p *Program) DeclareHost(name string, numArgs int, hasRet bool) int {
	if i, ok := p.hostBy[name]; ok {
		d := p.HostDecls[i]
		if d.NumArgs != numArgs || d.HasRet != hasRet {
			panic(fmt.Sprintf("ir: host %q redeclared with different signature", name))
		}
		return i
	}
	p.hostBy[name] = len(p.HostDecls)
	p.HostDecls = append(p.HostDecls, HostDecl{Name: name, NumArgs: numArgs, HasRet: hasRet})
	return len(p.HostDecls) - 1
}

// HostIndex returns the callee index for a declared host function.
func (p *Program) HostIndex(name string) (int, bool) {
	i, ok := p.hostBy[name]
	return i, ok
}

// AddRegion records a region descriptor and returns its id.
func (p *Program) AddRegion(name string, mainLoop bool) int {
	id := len(p.Regions)
	p.Regions = append(p.Regions, Region{ID: id, Name: name, MainLoop: mainLoop})
	return id
}

// RegionByName returns the region with the given name.
func (p *Program) RegionByName(name string) (Region, bool) {
	for _, r := range p.Regions {
		if r.Name == name {
			return r, true
		}
	}
	return Region{}, false
}

// Seal freezes the program: assigns global static instruction ids, fixes the
// entry point to the function named "main", validates the module, and
// decodes every function's dispatch codes. A program must be sealed before
// execution.
func (p *Program) Seal() error {
	if p.sealed {
		return nil
	}
	base := 0
	for i, f := range p.Funcs {
		f.Index = i
		f.Base = base
		base += len(f.Code)
	}
	p.TotalInstrs = base
	entry, ok := p.FuncByName["main"]
	if !ok {
		return fmt.Errorf("ir: program %q has no main function", p.Name)
	}
	if entry.NumArgs != 0 {
		return fmt.Errorf("ir: main must take no arguments, has %d", entry.NumArgs)
	}
	if p.MemWords == 0 {
		p.MemWords = 1
	}
	if err := p.Validate(); err != nil {
		return err
	}
	for _, f := range p.Funcs {
		f.decode()
	}
	p.Entry = entry
	p.sealed = true
	return nil
}

// Sealed reports whether Seal has completed.
func (p *Program) Sealed() bool { return p.sealed }

// FuncOf returns the function containing global static id sid and the offset
// of the instruction within it.
func (p *Program) FuncOf(sid int) (*Function, int) {
	for _, f := range p.Funcs {
		if sid >= f.Base && sid < f.Base+len(f.Code) {
			return f, sid - f.Base
		}
	}
	return nil, -1
}

// InstrAt returns the instruction with global static id sid.
func (p *Program) InstrAt(sid int) Instr {
	f, off := p.FuncOf(sid)
	if f == nil {
		panic(fmt.Sprintf("ir: static id %d out of range", sid))
	}
	return f.Code[off]
}
