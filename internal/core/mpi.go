package core

import (
	"context"
	"fmt"
	"iter"
	"slices"
	"sync"

	"fliptracker/internal/apps"
	"fliptracker/internal/campaign"
	"fliptracker/internal/inject"
	"fliptracker/internal/interp"
	"fliptracker/internal/ir"
	"fliptracker/internal/mpi"
	"fliptracker/internal/trace"
)

// WorldAnalysis is the complete fine-grained analysis of one faulty MPI
// world: the §II-A world-level outcome, the cross-rank propagation
// classification, and one FaultAnalysis per rank — each rank's faulty trace
// matched against its own fault-free trace through that rank's CleanIndex
// (ACL table, DDDG comparison, pattern detection), exactly as a
// single-process analyzed campaign would analyze that rank alone.
type WorldAnalysis struct {
	Fault interp.Fault
	// FaultRank is the rank the fault was injected into.
	FaultRank int
	// Outcome is the world-level classification (mpi.ClassifyWorld).
	Outcome inject.Outcome
	// Propagation classifies how far corruption spread beyond FaultRank.
	Propagation mpi.Propagation
	// Ranks[r] is rank r's analysis against its clean trace. Its Outcome is
	// the rank-local manifestation (campaign.Classify over the rank's own
	// outputs): the injected rank counts NotApplied when its fault never
	// fired, and every other rank counts as applied (a Contained world
	// shows Success everywhere but possibly the injected rank).
	Ranks []*FaultAnalysis
}

// DropTrace releases every rank's faulty trace, keeping only analysis
// artifacts (the campaign.TraceDropper hook behind campaign.WithDropTraces).
func (wa *WorldAnalysis) DropTrace() {
	for _, fa := range wa.Ranks {
		fa.DropTrace()
	}
}

// MPIAnalyzer drives the FlipTracker pipeline for the SPMD variant of one
// application: it records one fault-free fully traced world and builds a
// CleanIndex per rank over it, so every per-fault entry point — the
// sequential AnalyzeWorld, analyzed MPI campaigns — shares the same clean
// artifacts, mirroring what Analyzer/CleanIndex do for single-process runs.
type MPIAnalyzer struct {
	App   *apps.App
	Prog  *ir.Program
	Ranks int
	// FaultRank selects the rank every fault is injected into ("we focus on
	// the single process where the fault is injected", §IV-A). Set it
	// before building campaigns or analyzing worlds; the default is 0.
	FaultRank int

	clean *mpi.Result
	index []*CleanIndex
	hint  uint64

	sidMu   sync.Mutex
	sidLogs map[int][]int32 // rankSIDLog's results, keyed by rank
}

// NewMPIAnalyzer builds the per-rank pipeline for a registered application
// at the given world size: it runs the fault-free world once under full
// tracing and indexes each rank's clean trace.
func NewMPIAnalyzer(appName string, ranks int) (*MPIAnalyzer, error) {
	a, ok := apps.Get(appName)
	if !ok {
		return nil, fmt.Errorf("core: unknown application %q (have %v)", appName, apps.Names())
	}
	p, err := a.MPIProgram()
	if err != nil {
		return nil, err
	}
	ma := &MPIAnalyzer{App: a, Prog: p, Ranks: ranks}
	cfg := ma.worldConfig()
	cfg.Mode = interp.TraceFull
	clean, err := mpi.Run(p, cfg)
	if err != nil {
		return nil, fmt.Errorf("core: %s clean world: %w", appName, err)
	}
	if clean.Status() != trace.RunOK {
		return nil, fmt.Errorf("core: %s clean world %v", appName, clean.Status())
	}
	ma.clean = clean
	for _, rr := range clean.Ranks {
		ma.index = append(ma.index, NewTraceIndex(p, rr.Trace))
		if rr.Trace.Steps > ma.hint {
			ma.hint = rr.Trace.Steps
		}
	}
	ma.hint += 64
	return ma, nil
}

// worldConfig is the base configuration every world of this analyzer runs
// under (the campaign adds fault, replay, mode and hints on top).
func (ma *MPIAnalyzer) worldConfig() mpi.Config {
	return mpi.Config{
		Ranks:     ma.Ranks,
		Seed:      apps.DefaultSeed,
		FaultRank: ma.FaultRank,
		ExtraBind: func(m *interp.Machine, _ int) error { return apps.BindMathHosts(m) },
	}
}

// Clean returns the fault-free fully traced world.
func (ma *MPIAnalyzer) Clean() *mpi.Result { return ma.clean }

// verifyWorld is the §II-A verification phase over a whole world: every
// rank's outputs must match its clean outputs within the app's tolerance.
func (ma *MPIAnalyzer) verifyWorld(faulty *mpi.Result) bool {
	for r, rr := range faulty.Ranks {
		if !apps.VerifyOutputs(rr.Trace, ma.clean.Ranks[r].Trace.Output, ma.App.Tol) {
			return false
		}
	}
	return true
}

// checkFaultRank rejects a FaultRank outside the world before any lookup
// indexes by it.
func (ma *MPIAnalyzer) checkFaultRank() error {
	if ma.FaultRank < 0 || ma.FaultRank >= ma.Ranks {
		return fmt.Errorf("core: fault rank %d outside world [0, %d)", ma.FaultRank, ma.Ranks)
	}
	return nil
}

// InjectedSteps returns the dynamic step count of the injected rank's clean
// run — the whole-program fault population of the MPI pipeline (§IV-C
// counts sites over the injected process's dynamic trace). A FaultRank
// outside the world yields 0 (campaign construction reports the error).
func (ma *MPIAnalyzer) InjectedSteps() uint64 {
	if ma.checkFaultRank() != nil {
		return 0
	}
	return ma.clean.Ranks[ma.FaultRank].Trace.Steps
}

// NewCampaign builds a plain (untraced) MPI campaign over targets, wired to
// this analyzer's clean world, verifier and fault rank. It passes the
// injected rank's clean SID log (mpi.WithSIDLog), so the faults the
// interpreter's fires rule shows cannot fire record NotApplied without
// running a world; the outcomes are those of a campaign that runs every
// world. A nil targets defaults to the whole-program population of the
// injected rank (InjectedSteps). opts may add tests, seed, parallelism,
// progress.
func (ma *MPIAnalyzer) NewCampaign(targets inject.TargetPicker, opts ...mpi.Option) (*mpi.Campaign, error) {
	if err := ma.checkFaultRank(); err != nil {
		return nil, err
	}
	sids, err := ma.rankSIDLog(ma.FaultRank)
	if err != nil {
		return nil, err
	}
	return ma.newCampaign(targets, slices.Concat([]mpi.Option{mpi.WithSIDLog(sids)}, opts)...)
}

// rankSIDLog returns one rank's step-indexed static-id log of the clean
// world, replaying the fault-free world once per rank under the clean
// recording with instruction-id logging enabled on that rank. The replay is
// pinned to the clean Recording, so the log is exactly the instruction
// sequence every injected world executes on that rank up to its fault step.
func (ma *MPIAnalyzer) rankSIDLog(rank int) ([]int32, error) {
	ma.sidMu.Lock()
	defer ma.sidMu.Unlock()
	if sids, ok := ma.sidLogs[rank]; ok {
		return sids, nil
	}
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
	if ma.sidLogs == nil {
		ma.sidLogs = make(map[int][]int32)
	}
	ma.sidLogs[rank] = target.SIDLog()
	return target.SIDLog(), nil
}

// newCampaign is NewCampaign without the SID log: it runs every world.
func (ma *MPIAnalyzer) newCampaign(targets inject.TargetPicker, opts ...mpi.Option) (*mpi.Campaign, error) {
	if err := ma.checkFaultRank(); err != nil {
		return nil, err
	}
	if targets == nil {
		targets = inject.UniformDst{TotalSteps: ma.InjectedSteps()}
	}
	return mpi.NewCampaign(ma.Prog, ma.worldConfig(), targets,
		slices.Concat([]mpi.Option{mpi.WithClean(ma.clean), mpi.WithVerify(ma.verifyWorld)}, opts)...)
}

// NewAnalyzedCampaign is NewCampaign, unpruned, plus the per-rank analysis
// hook: every injected world runs fully traced and yields a *WorldAnalysis on
// WorldOutcome.Analysis, computed inside the campaign worker pool so
// WithParallelism(N) parallelizes the analyses as well as the worlds. The
// hook goes last so a stray WithWorldAnalysis among opts cannot replace it.
func (ma *MPIAnalyzer) NewAnalyzedCampaign(targets inject.TargetPicker, opts ...mpi.Option) (*mpi.Campaign, error) {
	faultRank := ma.FaultRank
	return ma.newCampaign(targets, slices.Concat(opts, []mpi.Option{mpi.WithWorldAnalysis(
		func(_ int, f interp.Fault, faulty *mpi.Result, outcome inject.Outcome, prop mpi.Propagation) (any, error) {
			return ma.analyzeResult(f, faultRank, faulty, outcome, prop), nil
		})})...)
}

// StreamWorldAnalysis runs an analyzed MPI campaign and yields one
// *WorldAnalysis per injected world in fault-index order (deterministic for
// a fixed seed, whatever the parallelism). Breaking out of the loop stops
// the workers promptly; on failure — including context cancellation — the
// final pair carries the error.
func (ma *MPIAnalyzer) StreamWorldAnalysis(ctx context.Context, targets inject.TargetPicker, opts ...mpi.Option) iter.Seq2[*WorldAnalysis, error] {
	return func(yield func(*WorldAnalysis, error) bool) {
		c, err := ma.NewAnalyzedCampaign(targets, opts...)
		if err != nil {
			yield(nil, err)
			return
		}
		for wo, err := range c.Stream(ctx) {
			if err != nil {
				yield(nil, err)
				return
			}
			wa, ok := wo.Analysis.(*WorldAnalysis)
			if !ok {
				yield(nil, fmt.Errorf("core: analyzed MPI campaign yielded unexpected payload %T", wo.Analysis))
				return
			}
			if !yield(wa, nil) {
				return
			}
		}
	}
}

// AnalyzeWorld runs one faulty world sequentially — a single mpi.Run
// replaying the clean recording — and produces the same WorldAnalysis an
// analyzed campaign computes for that fault: identical world classification
// (mpi.ClassifyWorld with the analyzer's verifier), identical propagation,
// identical per-rank analyses. The golden tests pin campaign output
// byte-identical to a loop over this entry point.
func (ma *MPIAnalyzer) AnalyzeWorld(f interp.Fault) (*WorldAnalysis, error) {
	if err := ma.checkFaultRank(); err != nil {
		return nil, err
	}
	cfg := ma.worldConfig()
	cfg.Mode = interp.TraceFull
	cfg.Fault = &f
	cfg.Replay = ma.clean.Recording
	cfg.TraceHint = ma.hint
	faulty, err := mpi.Run(ma.Prog, cfg)
	if err != nil {
		return nil, err
	}
	outcome := mpi.ClassifyWorld(faulty, ma.FaultRank, ma.verifyWorld)
	prop := mpi.ClassifyPropagation(ma.clean, faulty, ma.FaultRank)
	return ma.analyzeResult(f, ma.FaultRank, faulty, outcome, prop), nil
}

// analyzeResult classifies every rank of a finished faulty world on its own
// outputs and matches it against its clean index. Shared by AnalyzeWorld
// and the campaign hook so the two paths are byte-identical.
func (ma *MPIAnalyzer) analyzeResult(f interp.Fault, faultRank int, faulty *mpi.Result, outcome inject.Outcome, prop mpi.Propagation) *WorldAnalysis {
	wa := &WorldAnalysis{
		Fault:       f,
		FaultRank:   faultRank,
		Outcome:     outcome,
		Propagation: prop,
		Ranks:       make([]*FaultAnalysis, len(faulty.Ranks)),
	}
	for r, rr := range faulty.Ranks {
		o := campaign.Classify(rr.Trace.Status, r != faultRank || rr.FaultApplied, func() bool {
			return apps.VerifyOutputs(rr.Trace, ma.clean.Ranks[r].Trace.Output, ma.App.Tol)
		})
		wa.Ranks[r] = ma.index[r].AnalyzeTrace(f, rr.Trace, o)
	}
	return wa
}
