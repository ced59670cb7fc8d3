package core

import (
	"fmt"
	"sync"

	"fliptracker/internal/inject"
	"fliptracker/internal/interp"
	"fliptracker/internal/irstatic"
	"fliptracker/internal/trace"
)

// This file wires the static IR dependence analysis (internal/irstatic) into
// the orchestration layer: each Analyzer caches one whole-program analysis
// and one fault pruner over its clean run, and CrossCheckOutcome turns the
// analysis's soundness claim into a runtime assertion every dynamic outcome
// can be audited against. No campaign consults them.

// staticState is the Analyzer's cached static-analysis machinery.
type staticState struct {
	anOnce, prunerOnce sync.Once
	an                 *irstatic.Analysis
	pruner             *irstatic.Pruner
	anErr, prunerErr   error
}

// StaticAnalysis returns the cached whole-program dependence analysis of the
// application's program (irstatic.Analyze).
func (an *Analyzer) StaticAnalysis() (*irstatic.Analysis, error) {
	an.static.anOnce.Do(func() { an.static.an, an.static.anErr = irstatic.Analyze(an.Prog) })
	return an.static.an, an.static.anErr
}

// StaticPruner returns the cached fault pruner for this application: the
// static analysis paired with the clean run's step-indexed instruction log.
// Building it runs the application once (untraced, with
// interp.Machine.RecordSIDs) and insists the fault-free run completes and
// passes the app verifier — the Benign class promises "output identical to
// the fault-free run", which only classifies Success when that output itself
// verifies. Campaigns do not use it: an untraced injection stops once it
// reconverges with the clean run, which leaves pruning nothing to save.
// It serves soundness checks (CrossCheckOutcome) and statistics
// (irstatic.Pruner.StatsFor).
func (an *Analyzer) StaticPruner() (*irstatic.Pruner, error) {
	an.static.prunerOnce.Do(func() { an.static.pruner, an.static.prunerErr = an.buildPruner() })
	return an.static.pruner, an.static.prunerErr
}

func (an *Analyzer) buildPruner() (*irstatic.Pruner, error) {
	sa, err := an.StaticAnalysis()
	if err != nil {
		return nil, err
	}
	m, err := an.App.NewMachine()
	if err != nil {
		return nil, fmt.Errorf("core: static pruner: %w", err)
	}
	m.Mode = interp.TraceOff
	m.RecordSIDs = true
	tr, err := m.Run()
	if err != nil {
		return nil, fmt.Errorf("core: static pruner clean run: %w", err)
	}
	if tr.Status != trace.RunOK {
		return nil, fmt.Errorf("core: static pruner clean run %v", tr.Status)
	}
	if !an.App.Verify(tr) {
		return nil, fmt.Errorf("core: %s clean run fails verification; benign pruning cannot promise Success", an.App.Name)
	}
	return irstatic.NewPruner(sa, m.SIDLog())
}

// CrossCheckOutcome asserts the static analysis's soundness contract against
// one dynamically observed outcome: a statically Benign fault must have
// classified Success, and a statically NeverFires fault must have classified
// NotApplied. A non-nil error means the static analysis over-promised — an
// internal error in irstatic (or the interpreter), never in the application.
// The soundness-matrix tests sweep this over whole campaigns; long-running
// harnesses can call it per outcome as a cheap invariant check.
func CrossCheckOutcome(p *irstatic.Pruner, f interp.Fault, o inject.Outcome) error {
	switch p.Classify(f) {
	case irstatic.Benign:
		if o != inject.Success {
			return fmt.Errorf("core: static soundness violation: %v is statically benign but classified %v dynamically", &f, o)
		}
	case irstatic.NeverFires:
		if o != inject.NotApplied {
			return fmt.Errorf("core: static soundness violation: %v statically never fires but classified %v dynamically", &f, o)
		}
	}
	return nil
}
