package mpi

import (
	"context"
	"fmt"

	"fliptracker/internal/campaign"
	"fliptracker/internal/interp"
	"fliptracker/internal/ir"
	"fliptracker/internal/journal"
	"fliptracker/internal/trace"
)

// Campaign is one configured multi-rank fault-injection campaign: the MPI
// analog of inject.Campaign, with a full replayed world as the unit of work.
// Build it with NewCampaign, then execute it with Run for the aggregate
// result or consume it world by world with Stream. The embedded driver
// (internal/campaign) draws the fault stream once and owns the journal and
// early stopping, exactly as for inject.Campaign. A Campaign is
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
	targets campaign.TargetPicker

	verify  func(*Result) bool
	analyze WorldAnalyzer
	// sids is the injected rank's clean SID log (WithSIDLog); prune says
	// whether the campaign skips the faults it shows cannot fire (see
	// NewCampaign).
	sids  []int32
	prune bool

	clean *Result
	hint  uint64
}

// Option configures a Campaign at construction time: one of the options
// both engines share (campaign.WithTests, WithSeed, WithParallelism,
// WithProgress, WithEarlyStop, WithDropTraces, WithJournal, WithJournalApp)
// or one of this engine's own — WithVerify, WithWorldAnalysis, WithClean,
// WithSIDLog. A single-process engine option makes NewCampaign fail.
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
type WorldAnalyzer func(index int, f interp.Fault, faulty *Result, outcome campaign.Outcome, prop Propagation) (any, error)

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

// WithSIDLog makes a plain campaign skip the faults that cannot fire: sids
// is the injected rank's step-indexed instruction log of the clean world
// (interp.Machine.RecordSIDs on that rank, replayed under the clean
// Recording; core.MPIAnalyzer.NewCampaign passes one). A world is
// fault-free up to its fault step, so a fault whose step lies past the end
// of the log, or whose instruction there the interpreter's fires rule
// (interp.CanFire) rejects, leaves the world clean. It records NotApplied
// with a Contained propagation without running a world, exactly the
// outcome the world would have had. That outcome assumes a clean world
// that verifies, so nothing is skipped when the campaign's verifier
// rejects the clean world, nor in analyzed campaigns, whose every fault
// needs a traced world to analyze. A nil log skips nothing.
func WithSIDLog(sids []int32) Option { return engineOption(func(c *Campaign) { c.sids = sids }) }

// NewCampaign builds a campaign over the given fault population. base
// configures every world (ranks, per-rank seed, extra host binds, and
// FaultRank — the rank each drawn fault is injected into); its Fault and
// Replay fields must be nil, and Mode is ignored (plain campaigns run worlds
// untraced, analyzed campaigns fully traced). targets draws the fault stream
// exactly as in inject.NewCampaign, including campaign.IndexedPicker
// support; campaign.New refuses a nil targets. To run a fault-free world
// again, call Run with the clean world's Recording as Config.Replay.
func NewCampaign(p *ir.Program, base Config, targets campaign.TargetPicker, opts ...Option) (*Campaign, error) {
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
		Replay: func(r journal.Record) WorldOutcome {
			return WorldOutcome{
				Index:       int(r.Index),
				Fault:       r.Fault,
				Outcome:     campaign.Outcome(r.Outcome),
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
	if c.verify == nil {
		c.verify = func(faulty *Result) bool { return outputsEqual(c.clean, faulty) }
	}
	c.prune = c.sids != nil && c.analyze == nil && c.verify(c.clean)
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

// replay runs one world of the campaign under the clean recording in mode,
// injecting f: restored from snap when non-nil, else from step 0. A traced world from step 0 preallocates each rank's record buffer
// from the clean step counts; a restored traced world seeds it with the
// rank's clean prefix instead — the records a from-step-0 traced run laid
// down before the cut (interp.Machine.PrimeTrace; the pre-fault prefix is
// fault-free and deterministic) — so its per-rank traces are byte-identical
// to a from-step-0 traced replay.
func (c *Campaign) replay(f interp.Fault, mode interp.TraceMode, snap *WorldSnapshot) (*Result, error) {
	cfg := c.base
	cfg.Mode = mode
	cfg.Fault = &f
	cfg.Replay = c.clean.Recording
	if snap == nil {
		if mode == interp.TraceFull && cfg.TraceHint == 0 {
			cfg.TraceHint = c.hint
		}
		return Run(c.prog, cfg)
	}
	var prime func(m *interp.Machine, rank int)
	if mode == interp.TraceFull {
		prime = func(m *interp.Machine, rank int) { m.PrimeTrace(&c.clean.Ranks[rank].Trace.Recs) }
	}
	return RestoreWorld(c.prog, cfg, snap, prime)
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
	Outcome campaign.Outcome
	// Propagation classifies how far the corruption spread beyond the
	// injected rank.
	Propagation Propagation
	// Analysis is the WorldAnalyzer payload of an analyzed campaign; nil
	// otherwise.
	Analysis any
}

// plan is the engine's window planner (campaign.Executor.Plan): skipping
// the faults that cannot fire, world checkpoints for the window's other
// faults, then the per-fault runner. A skipped fault (see WithSIDLog)
// records NotApplied with a Contained propagation and without planning or
// running a world: a fault that never perturbs the world leaves nothing
// else to classify (what ClassifyPropagation computes for an undisturbed
// replay). World checkpoints need collective boundaries to cut at; without
// them, every world replays from step 0.
func (c *Campaign) plan(ctx context.Context, faults []interp.Fault, first int) (func(int) (WorldOutcome, error), error) {
	skip := make([]bool, len(faults))
	live := make([]int, 0, len(faults)-first)
	for i := first; i < len(faults); i++ {
		if c.prune && !c.fires(faults[i]) {
			skip[i] = true
			continue
		}
		live = append(live, i)
	}
	snapAt := make([]*WorldSnapshot, len(faults))
	if err := c.planWorldCheckpoints(ctx, faults, live, snapAt); err != nil {
		return nil, err
	}
	return func(i int) (WorldOutcome, error) {
		if skip[i] {
			return WorldOutcome{Index: i, Fault: faults[i], Outcome: campaign.NotApplied, Propagation: Propagation{Class: Contained}}, nil
		}
		return c.runFault(i, faults[i], snapAt[i])
	}, nil
}

// fires reports whether f can fire on the injected rank: its step lies
// within the clean SID log and the fires rule admits the instruction there.
func (c *Campaign) fires(f interp.Fault) bool {
	return f.Step < uint64(len(c.sids)) && interp.CanFire(c.prog, int(c.sids[f.Step]), f)
}

// runFault executes injected world i — restored from snap when non-nil,
// replayed from step 0 otherwise; fully traced and analyzed in an analyzed
// campaign, untraced otherwise — and classifies it.
func (c *Campaign) runFault(i int, f interp.Fault, snap *WorldSnapshot) (WorldOutcome, error) {
	mode := interp.TraceOff
	if c.analyze != nil {
		mode = interp.TraceFull
	}
	faulty, err := c.replay(f, mode, snap)
	if err != nil {
		return WorldOutcome{}, fmt.Errorf("mpi: world %d: %w", i, err)
	}
	wo := WorldOutcome{
		Index:       i,
		Fault:       f,
		Outcome:     ClassifyWorld(faulty, c.base.FaultRank, c.verify),
		Propagation: ClassifyPropagation(c.clean, faulty, c.base.FaultRank),
	}
	if c.analyze == nil {
		return wo, nil
	}
	if wo.Analysis, err = c.analyze(i, f, faulty, wo.Outcome, wo.Propagation); err != nil {
		return WorldOutcome{}, fmt.Errorf("mpi: analyze world %d: %w", i, err)
	}
	if d, ok := wo.Analysis.(campaign.TraceDropper); ok && c.cfg.DropTraces {
		d.DropTrace()
		// The payload has released its per-rank trace references; recycle
		// each rank's record buffer for later worlds. The world Result
		// itself is discarded here (only wo survives).
		for r := range faulty.Ranks {
			if t := faulty.Ranks[r].Trace; t != nil {
				trace.PutRecs(t.Recs)
				t.Recs = trace.Recs{}
			}
		}
	}
	return wo, nil
}

// ClassifyWorld maps a finished faulty world to its §II-A manifestation:
// crash dominates (an MPI job fails if any rank fails), verification runs
// over all ranks, and a fault that never fired on the injected rank
// classifies NotApplied: campaign.Classify over the world, as inject
// classifies single-process runs. Exposed so sequential per-world analyses
// classify identically to campaigns.
func ClassifyWorld(faulty *Result, faultRank int, verify func(*Result) bool) campaign.Outcome {
	return campaign.Classify(faulty.Status(), faulty.Ranks[faultRank].FaultApplied, func() bool { return verify(faulty) })
}
