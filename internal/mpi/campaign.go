package mpi

import (
	"context"
	"fmt"

	"fliptracker/internal/campaign"
	"fliptracker/internal/inject"
	"fliptracker/internal/interp"
	"fliptracker/internal/ir"
	"fliptracker/internal/journal"
	"fliptracker/internal/trace"
)

// Campaign is one configured multi-rank fault-injection campaign: the MPI
// analog of inject.Campaign, with a full replayed world as the unit of work.
// Build it with NewCampaign, then execute it with Run for the aggregate
// result or consume it world by world with Stream. The embedded driver
// (internal/campaign) draws the fault stream once and owns the journal,
// early stopping and sharding, exactly as for inject.Campaign. A Campaign is
// immutable after construction and safe to run multiple times; for a fixed
// seed the outcomes are identical whatever the parallelism.
//
// Construction records (or adopts, see WithClean) one fault-free fully
// traced world. Every injection then replays that world — same per-rank
// seeds, the clean Recording pinning wildcard-receive order (§V-B), per-rank
// trace buffers hinted from the clean step counts — with a single fault
// injected into the configured rank ("we focus on the single process where
// the fault is injected", §IV-A), and classifies both the world-level
// outcome (§II-A against the clean world's outputs) and how far the
// corruption spread across ranks (Propagation).
type Campaign struct {
	*campaign.Campaign[WorldOutcome]

	cfg     campaign.Settings
	prog    *ir.Program
	base    Config
	targets inject.TargetPicker

	verify  func(*Result) bool
	analyze WorldAnalyzer

	clean *Result
	hint  uint64
	// stitch permits clean-prefix reuse for analyzed worlds; it
	// requires every rank's clean record steps to be monotonic (see
	// NewCampaign), else analyzed injections replay traced from step 0.
	stitch bool
}

// Option configures a Campaign at construction time: one of the options
// both engines share (campaign.WithTests, WithSeed, WithParallelism,
// WithProgress, WithEarlyStop, WithDropTraces, WithStaticPrune, WithJournal,
// WithJournalApp, WithShards) or one of this engine's own —
// WithVerify, WithWorldAnalysis, WithClean. A single-process engine option
// makes NewCampaign fail.
type Option = campaign.Option

// engineOption is an option of this engine only.
type engineOption = campaign.EngineOption[Campaign]

// WithTests is campaign.WithTests: the number of injected worlds.
//
// Deprecated: use campaign.WithTests.
func WithTests(n int) Option { return campaign.WithTests(n) }

// WithSeed is campaign.WithSeed.
//
// Deprecated: use campaign.WithSeed.
func WithSeed(seed int64) Option { return campaign.WithSeed(seed) }

// WithParallelism is campaign.WithParallelism: it caps concurrently
// executing worlds. Each world already runs one goroutine per rank, so the
// useful ceiling is lower than in single-process campaigns.
//
// Deprecated: use campaign.WithParallelism.
func WithParallelism(n int) Option { return campaign.WithParallelism(n) }

// WithVerify replaces the campaign's world verifier, consulted when a world
// completes without crashing. The default verifier requires every rank's
// outputs to match the clean world's bit for bit; analysis layers with a
// tolerance (the §II-A verification phase) substitute their own.
func WithVerify(verify func(faulty *Result) bool) Option {
	return engineOption(func(c *Campaign) { c.verify = verify })
}

// WorldAnalyzer is the per-fault analysis hook of an analyzed MPI campaign:
// it receives the fault's stream index, the fault, the faulty world with its
// per-rank traces, the world's §II-A outcome, and the cross-rank propagation
// classification, and returns an arbitrary payload delivered on
// WorldOutcome.Analysis. It runs inside the campaign worker pool, so for
// WithParallelism > 1 it must be safe for concurrent calls; an error aborts
// the campaign.
type WorldAnalyzer func(index int, f interp.Fault, faulty *Result, outcome inject.Outcome, prop Propagation) (any, error)

// WithWorldAnalysis turns the campaign into an analyzed campaign: every
// injected world runs fully traced (whatever Config.Mode says) and is handed
// to analyze on the worker that ran it, so per-world analyses parallelize
// with the injections themselves.
func WithWorldAnalysis(analyze WorldAnalyzer) Option {
	return engineOption(func(c *Campaign) { c.analyze = analyze })
}

// WithClean adopts an existing fault-free world instead of recording a new
// one at construction. clean must be a TraceFull run of the same program
// under the same Config (ranks, seed, binds); analysis layers that already
// hold one (e.g. per-rank clean indexes) pass it here so the campaign and
// the analysis replay the identical recording.
func WithClean(clean *Result) Option { return engineOption(func(c *Campaign) { c.clean = clean }) }

// NewCampaign builds a campaign over the given fault population. base
// configures every world (ranks, per-rank seed, extra host binds, and
// FaultRank — the rank each drawn fault is injected into); its Fault and
// Replay fields must be nil, and Mode is ignored (plain campaigns run worlds
// untraced, analyzed campaigns fully traced). targets draws the fault stream
// exactly as in inject.NewCampaign, including campaign.IndexedPicker support.
//
// A nil targets with zero tests builds a replay-only campaign: Run and
// Stream fail, but Clean and ReplayClean expose the recorded world — the
// unit of work every harness over replayed worlds (e.g. the Figure 4
// tracing-overhead study) shares with injecting campaigns.
func NewCampaign(p *ir.Program, base Config, targets inject.TargetPicker, opts ...Option) (*Campaign, error) {
	c := &Campaign{prog: p, base: base, targets: targets}
	if err := campaign.Apply(&c.cfg, c, opts); err != nil {
		return nil, fmt.Errorf("mpi: %w", err)
	}
	if base.Fault != nil || base.Replay != nil {
		return nil, fmt.Errorf("mpi: campaign base config must not set Fault or Replay (the campaign draws faults and records its own replay)")
	}
	if base.FaultRank < 0 || base.FaultRank >= base.Ranks {
		return nil, fmt.Errorf("mpi: fault rank %d outside world [0, %d)", base.FaultRank, base.Ranks)
	}
	if c.targets == nil && c.analyze != nil {
		return nil, fmt.Errorf("mpi: replay-only campaign cannot carry a WorldAnalyzer")
	}
	if c.cfg.App == "" {
		c.cfg.App = p.Name
	}
	d, err := campaign.New(c.cfg, c.targets, campaign.Executor[WorldOutcome]{
		Engine: journal.EngineMPI,
		Config: fmt.Sprintf("mpi|ranks=%d|faultrank=%d|worldseed=%d|steplimit=%d",
			base.Ranks, base.FaultRank, base.Seed, base.StepLimit),
		Analyzed: c.analyze != nil,
		Plan:     c.plan,
		Record: func(wo WorldOutcome) journal.Record {
			return journal.Record{
				Index:     uint64(wo.Index),
				Outcome:   uint8(wo.Outcome),
				Fault:     wo.Fault,
				PropClass: uint8(wo.Propagation.Class),
				PropRanks: wo.Propagation.Ranks,
			}
		},
		// A record without propagation fields replays Contained with no
		// diverged ranks: the outcome of a statically proven fault, which
		// never perturbs the world (what ClassifyPropagation computes for an
		// undisturbed replay).
		Replay: func(r journal.Record) WorldOutcome {
			return WorldOutcome{
				Index:       int(r.Index),
				Fault:       r.Fault,
				Outcome:     inject.Outcome(r.Outcome),
				Propagation: Propagation{Class: PropagationClass(r.PropClass), Ranks: r.PropRanks},
			}
		},
	})
	if err != nil {
		return nil, err
	}
	c.Campaign = d
	if c.clean == nil {
		cfg := c.base
		cfg.Mode = interp.TraceFull
		clean, err := Run(p, cfg)
		if err != nil {
			return nil, fmt.Errorf("mpi: clean world: %w", err)
		}
		c.clean = clean
	}
	if len(c.clean.Ranks) != base.Ranks {
		return nil, fmt.Errorf("mpi: clean world has %d ranks, campaign wants %d", len(c.clean.Ranks), base.Ranks)
	}
	if c.clean.Status() != trace.RunOK {
		return nil, fmt.Errorf("mpi: clean world %v", c.clean.Status())
	}
	for _, rr := range c.clean.Ranks {
		if rr.Trace.Recs.Len() == 0 {
			return nil, fmt.Errorf("mpi: clean world rank %d is untraced (campaign needs a TraceFull clean run)", rr.Rank)
		}
		if rr.Trace.Steps > c.hint {
			c.hint = rr.Trace.Steps
		}
	}
	c.hint += 64
	if c.analyze != nil {
		// Prefix stitching cuts each rank's clean records by Step, which is
		// only sound when every rank's record steps are monotonic
		// (trace.StepsMonotonic). For other programs analyzed injections
		// replay traced from step 0 (correct, just without the
		// prefix-sharing speedup) — exactly as in inject.NewCampaign.
		c.stitch = true
		for _, rr := range c.clean.Ranks {
			if !trace.StepsMonotonic(rr.Trace.Recs) {
				c.stitch = false
				break
			}
		}
	}
	if c.verify == nil {
		c.verify = func(faulty *Result) bool { return outputsEqual(c.clean, faulty) }
	}
	return c, nil
}

// outputsEqual reports bit-exact per-rank output equality — a meaningful
// default verifier because replayed worlds are deterministic (rank-ordered
// collectives, recorded wildcard receives).
func outputsEqual(clean, faulty *Result) bool {
	for r := range clean.Ranks {
		co, fo := clean.Ranks[r].Trace.Output, faulty.Ranks[r].Trace.Output
		if len(co) != len(fo) {
			return false
		}
		for i := range co {
			if co[i].Val != fo[i].Val || co[i].Typ != fo[i].Typ {
				return false
			}
		}
	}
	return true
}

// Clean returns the fault-free fully traced world every injection replays.
func (c *Campaign) Clean() *Result { return c.clean }

// ReplayClean re-executes the fault-free world under the clean recording in
// the given trace mode — exactly the unit of work a campaign worker runs,
// minus the fault. The Figure 4 tracing-overhead study times this.
func (c *Campaign) ReplayClean(mode interp.TraceMode) (*Result, error) {
	return c.runWorld(nil, mode)
}

func (c *Campaign) runWorld(f *interp.Fault, mode interp.TraceMode) (*Result, error) {
	cfg := c.base
	cfg.Mode = mode
	cfg.Fault = f
	cfg.Replay = c.clean.Recording
	if mode == interp.TraceFull && cfg.TraceHint == 0 {
		cfg.TraceHint = c.hint
	}
	return Run(c.prog, cfg)
}

// worldMode is the trace mode of the campaign's injection runs: untraced
// unless a WorldAnalyzer needs the per-rank traces.
func (c *Campaign) worldMode() interp.TraceMode {
	if c.analyze != nil {
		return interp.TraceFull
	}
	return interp.TraceOff
}

// WorldOutcome is one per-fault record of a streaming MPI campaign.
type WorldOutcome struct {
	// Index is the fault's position in the pre-drawn stream; Stream yields
	// outcomes in increasing Index order.
	Index int
	// Fault is the drawn fault, injected into the campaign's FaultRank.
	Fault interp.Fault
	// Outcome is the world-level §II-A classification: an MPI job crashes
	// if any rank crashes, verifies against all ranks' outputs, and counts
	// NotApplied when the injected rank's fault never fired.
	Outcome inject.Outcome
	// Propagation classifies how far the corruption spread beyond the
	// injected rank.
	Propagation Propagation
	// Analysis is the WorldAnalyzer payload of an analyzed campaign; nil
	// otherwise.
	Analysis any
}

// plan is the engine's window planner (campaign.Executor.Plan): world
// checkpoints for the window's faults, then the per-fault runner. World checkpoints need collective boundaries
// to cut at, and analyzed campaigns additionally need stitchable
// (per-rank monotonic) clean traces; planWorldCheckpoints degrades to a nil
// plan (replay from step 0) when either is missing.
func (c *Campaign) plan(ctx context.Context, faults []interp.Fault, live []int) (func(int) (WorldOutcome, error), error) {
	var plan *worldPlan
	if c.analyze == nil || c.stitch {
		var err error
		if plan, err = c.planWorldCheckpoints(ctx, faults, live); err != nil {
			return nil, err
		}
	}
	return func(i int) (WorldOutcome, error) { return c.runFault(i, faults[i], plan) }, nil
}

// runFault executes one injected world — restored from its planned world
// checkpoint when one is assigned, replayed from step 0 otherwise — and
// classifies it.
func (c *Campaign) runFault(i int, f interp.Fault, plan *worldPlan) (WorldOutcome, error) {
	faulty, err := c.runPlanned(i, &f, plan)
	if err != nil {
		return WorldOutcome{}, fmt.Errorf("mpi: world %d: %w", i, err)
	}
	wo := WorldOutcome{
		Index:       i,
		Fault:       f,
		Outcome:     ClassifyWorld(faulty, c.base.FaultRank, c.verify),
		Propagation: ClassifyPropagation(c.clean, faulty, c.base.FaultRank),
	}
	if c.analyze != nil {
		payload, err := c.analyze(i, f, faulty, wo.Outcome, wo.Propagation)
		if err != nil {
			return WorldOutcome{}, fmt.Errorf("mpi: analyze world %d: %w", i, err)
		}
		if c.cfg.DropTraces {
			if d, ok := payload.(inject.TraceDropper); ok {
				d.DropTrace()
				// The payload has released its per-rank trace references;
				// recycle each rank's record buffer for later worlds. The
				// world Result itself is discarded below (only wo survives).
				for r := range faulty.Ranks {
					if t := faulty.Ranks[r].Trace; t != nil {
						trace.PutRecs(t.Recs)
						t.Recs = trace.Recs{}
					}
				}
			}
		}
		wo.Analysis = payload
	}
	return wo, nil
}

// ClassifyWorld maps a finished faulty world to its §II-A manifestation:
// crash dominates (an MPI job fails if any rank fails), verification runs
// over all ranks, and a fault that never fired on the injected rank
// classifies NotApplied (matching inject.Campaign's classification of
// single-process runs). Exposed so sequential per-world analyses classify
// identically to campaigns.
func ClassifyWorld(faulty *Result, faultRank int, verify func(*Result) bool) inject.Outcome {
	switch faulty.Status() {
	case trace.RunCrashed, trace.RunHang:
		return inject.Crashed
	}
	ok := verify(faulty)
	if !faulty.Ranks[faultRank].FaultApplied {
		if ok {
			return inject.NotApplied
		}
		return inject.Failed
	}
	if ok {
		return inject.Success
	}
	return inject.Failed
}
