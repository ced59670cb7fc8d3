package core

import (
	"fmt"

	"fliptracker/internal/interp"
	"fliptracker/internal/ir"
	"fliptracker/internal/trace"
)

// StaticPruner pairs a program with its clean run's step-indexed instruction
// log, so the interpreter's fires rule (interp.CanFire) can be asked about a
// fault before it runs. No campaign uses it.
//
// Deprecated: kept only for the campaign benchmark's calls; the benchmark
// change that drops them removes it.
type StaticPruner struct {
	prog *ir.Program
	sids []int32
}

// Classify returns 1 when the fault cannot fire, because its step lies past
// the clean run or interp.CanFire rejects it at the instruction the clean run
// executes there, and 0 otherwise.
func (p *StaticPruner) Classify(f interp.Fault) int {
	if f.Step >= uint64(len(p.sids)) || !interp.CanFire(p.prog, int(p.sids[f.Step]), f) {
		return 1
	}
	return 0
}

// StaticPruner returns the cached StaticPruner of the application, built
// from one untraced clean run with interp.Machine.RecordSIDs.
//
// Deprecated: kept only for the campaign benchmark's calls; the benchmark
// change that drops them removes it.
func (an *Analyzer) StaticPruner() (*StaticPruner, error) {
	an.prunerOnce.Do(func() { an.pruner, an.prunerErr = an.buildPruner() })
	return an.pruner, an.prunerErr
}

func (an *Analyzer) buildPruner() (*StaticPruner, error) {
	m, err := an.App.NewMachine()
	if err != nil {
		return nil, fmt.Errorf("core: SID log: %w", err)
	}
	m.Mode = interp.TraceOff
	m.RecordSIDs = true
	tr, err := m.Run()
	if err != nil {
		return nil, fmt.Errorf("core: SID log clean run: %w", err)
	}
	if tr.Status != trace.RunOK {
		return nil, fmt.Errorf("core: SID log clean run %v", tr.Status)
	}
	return &StaticPruner{prog: an.Prog, sids: m.SIDLog()}, nil
}
