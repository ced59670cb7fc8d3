package core

import (
	"fmt"
	"sync"

	"fliptracker/internal/inject"
	"fliptracker/internal/interp"
	"fliptracker/internal/irstatic"
	"fliptracker/internal/mpi"
	"fliptracker/internal/trace"
)

// This file wires the static IR dependence analysis (internal/irstatic) into
// the orchestration layer: each analyzer caches one whole-program analysis
// and one fault pruner over its clean run, and CrossCheckOutcome turns the
// analysis's soundness claim into a runtime assertion every dynamic outcome
// can be audited against.

// staticState is the cached static-analysis machinery shared by Analyzer and
// MPIAnalyzer.
type staticState struct {
	once sync.Once
	an   *irstatic.Analysis
	err  error

	mu      sync.Mutex
	pruners map[int]*irstatic.Pruner // keyed by injected rank (-1: single-process)
}

func (s *staticState) analysis(build func() (*irstatic.Analysis, error)) (*irstatic.Analysis, error) {
	s.once.Do(func() { s.an, s.err = build() })
	return s.an, s.err
}

func (s *staticState) pruner(key int, build func(*irstatic.Analysis) (*irstatic.Pruner, error), abuild func() (*irstatic.Analysis, error)) (*irstatic.Pruner, error) {
	an, err := s.analysis(abuild)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if p, ok := s.pruners[key]; ok {
		return p, nil
	}
	p, err := build(an)
	if err != nil {
		return nil, err
	}
	if s.pruners == nil {
		s.pruners = make(map[int]*irstatic.Pruner)
	}
	s.pruners[key] = p
	return p, nil
}

// StaticAnalysis returns the cached whole-program dependence analysis of the
// application's program (irstatic.Analyze).
func (an *Analyzer) StaticAnalysis() (*irstatic.Analysis, error) {
	return an.static.analysis(func() (*irstatic.Analysis, error) {
		return irstatic.Analyze(an.Prog)
	})
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
	return an.static.pruner(-1, func(sa *irstatic.Analysis) (*irstatic.Pruner, error) {
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
	}, func() (*irstatic.Analysis, error) { return irstatic.Analyze(an.Prog) })
}

// StaticPruner returns the cached fault pruner for the analyzer's current
// FaultRank: the MPI program's static analysis paired with the injected
// rank's step-indexed instruction log, obtained by replaying the fault-free
// world once under the clean recording. The clean world must pass the world
// verifier for the same reason as in Analyzer.StaticPruner. Pruners are
// cached per rank, so changing FaultRank and calling again is safe.
// NewCampaign passes it to every plain campaign (mpi.WithPruner).
func (ma *MPIAnalyzer) StaticPruner() (*irstatic.Pruner, error) {
	if err := ma.checkFaultRank(); err != nil {
		return nil, err
	}
	rank := ma.FaultRank
	return ma.static.pruner(rank, func(sa *irstatic.Analysis) (*irstatic.Pruner, error) {
		if !ma.verifyWorld(ma.clean) {
			return nil, fmt.Errorf("core: %s clean world fails verification; benign pruning cannot promise Success", ma.App.Name)
		}
		sids, err := ma.rankSIDLog(rank)
		if err != nil {
			return nil, err
		}
		return irstatic.NewPruner(sa, sids)
	}, func() (*irstatic.Analysis, error) { return irstatic.Analyze(ma.Prog) })
}

// rankSIDLog replays the fault-free world under the clean recording with
// instruction-id logging enabled on one rank and returns that rank's
// step-indexed static-id log — the step→instruction mapping
// irstatic.NewPruner needs. The replay is pinned to the clean Recording, so
// the log is exactly the instruction sequence every injected world executes
// on that rank up to its fault step.
func (ma *MPIAnalyzer) rankSIDLog(rank int) ([]int32, error) {
	cfg := ma.worldConfig()
	cfg.Mode = interp.TraceOff
	cfg.Replay = ma.clean.Recording
	var target *interp.Machine
	inner := cfg.ExtraBind
	cfg.ExtraBind = func(m *interp.Machine, r int) error {
		if r == rank {
			m.RecordSIDs = true
			target = m
		}
		if inner != nil {
			return inner(m, r)
		}
		return nil
	}
	res, err := mpi.Run(ma.Prog, cfg)
	if err != nil {
		return nil, fmt.Errorf("core: SID log replay: %w", err)
	}
	if res.Status() != trace.RunOK {
		return nil, fmt.Errorf("core: SID log replay %v", res.Status())
	}
	if target == nil || len(target.SIDLog()) == 0 {
		return nil, fmt.Errorf("core: SID log replay recorded nothing for rank %d", rank)
	}
	return target.SIDLog(), nil
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
