package irstatic

import (
	"fmt"

	"fliptracker/internal/interp"
)

// Pruner classifies concrete interp.Faults against a static analysis. The
// missing link between the two is the step→instruction mapping of the clean
// run: a fault fires at dynamic step N, the analysis speaks in static ids.
// SIDs is the clean run's instruction log (interp.Machine.SIDLog, recorded
// with RecordSIDs); since the interpreter is deterministic and a fault is
// dormant until its step, the faulty run executes the same instruction at
// the fault step as the clean run did.
type Pruner struct {
	An *Analysis
	// SIDs[step] is the global static id executed at that dynamic step of
	// the fault-free run.
	SIDs []int32
}

// NewPruner pairs an analysis with a clean-run instruction log.
func NewPruner(an *Analysis, sids []int32) (*Pruner, error) {
	if an == nil {
		return nil, fmt.Errorf("irstatic: nil analysis")
	}
	if len(sids) == 0 {
		return nil, fmt.Errorf("irstatic: empty SID log (was RecordSIDs set on the clean run?)")
	}
	return &Pruner{An: an, SIDs: sids}, nil
}

// Classify returns the static verdict for one fault:
//
//   - NeverFires: the fault cannot apply (step past program end, or the
//     interpreter's fires rule interp.CanFire rejects it) — the run
//     completes clean and classifies NotApplied.
//   - Benign: the fault definitely applies and the corruption provably
//     reaches no sink — the run completes with identical output and
//     classifies Success.
//   - Live: no static promise; the injection must be executed.
func (p *Pruner) Classify(f interp.Fault) Class {
	if f.Step >= uint64(len(p.SIDs)) {
		// The clean run halts before the fault step; a dormant fault never
		// fires. (Benign-pruned faults cannot lengthen the run, and Live
		// faults are not pruned, so the comparison against the clean log is
		// sound.)
		return NeverFires
	}
	sid := int(p.SIDs[f.Step])
	if !interp.CanFire(p.An.Prog, sid, f) {
		return NeverFires
	}
	switch f.Kind {
	case interp.FaultDst:
		return p.An.ClassifyDst(sid)
	case interp.FaultReg:
		return p.An.ClassifyReg(sid, f.Reg)
	}
	// Memory contents are not tracked, so a memory flip that fires is Live.
	return Live
}

// PruneStats summarizes how a fault list classifies statically.
type PruneStats struct {
	Total, Live, Benign, NeverFires int
}

// Rate returns the fraction of faults pruned (Benign + NeverFires).
func (s PruneStats) Rate() float64 {
	if s.Total == 0 {
		return 0
	}
	return float64(s.Benign+s.NeverFires) / float64(s.Total)
}

// StatsFor classifies every fault in the list.
func (p *Pruner) StatsFor(faults []interp.Fault) PruneStats {
	var s PruneStats
	s.Total = len(faults)
	for _, f := range faults {
		switch p.Classify(f) {
		case Live:
			s.Live++
		case Benign:
			s.Benign++
		case NeverFires:
			s.NeverFires++
		}
	}
	return s
}
