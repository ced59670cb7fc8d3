package inject

import (
	"context"
	"fmt"

	"fliptracker/internal/campaign"
	"fliptracker/internal/interp"
	"fliptracker/internal/irstatic"
	"fliptracker/internal/journal"
	"fliptracker/internal/trace"
)

// Campaign is one configured fault-injection campaign. Build it with
// NewCampaign, then execute it with Run for the aggregate Result or consume
// it fault by fault with Stream. The embedded driver (internal/campaign)
// draws the fault stream once, at construction, and owns the journal, early
// stopping and sharding; the engine supplies only how one fault runs. A
// Campaign is immutable after construction and safe to run multiple times:
// for a fixed seed the outcomes are identical whatever the parallelism.
type Campaign struct {
	*campaign.Campaign[FaultOutcome]

	cfg    campaign.Settings
	mk     func() (*interp.Machine, error)
	verify func(*trace.Trace) bool

	// maxCheckpoints overrides DefaultMaxCheckpoints when positive; only
	// the package's own tests set it.
	maxCheckpoints int

	analyze TraceAnalyzer
	clean   *trace.Trace
	// stitch permits clean-prefix reuse for analyzed runs; it
	// requires the clean trace's record steps to be monotonic (see
	// NewCampaign), else analyzed injections replay traced from step 0.
	stitch bool
}

// Option configures a Campaign at construction time: one of the options
// both engines share (campaign.WithTests, WithSeed, WithParallelism,
// WithProgress, WithEarlyStop, WithDropTraces, WithStaticPrune, WithJournal,
// WithJournalApp, WithShards) or WithAnalysis. An MPI engine
// option makes NewCampaign fail.
type Option = campaign.Option

// engineOption is an option of this engine only.
type engineOption = campaign.EngineOption[Campaign]

// WithTests is campaign.WithTests.
//
// Deprecated: use campaign.WithTests.
func WithTests(n int) Option { return campaign.WithTests(n) }

// WithSeed is campaign.WithSeed.
//
// Deprecated: use campaign.WithSeed.
func WithSeed(seed int64) Option { return campaign.WithSeed(seed) }

// WithParallelism is campaign.WithParallelism.
//
// Deprecated: use campaign.WithParallelism.
func WithParallelism(n int) Option { return campaign.WithParallelism(n) }

// WithScheduler does nothing: every campaign runs checkpointed.
//
// Deprecated: kept only for the campaign benchmark's call; the benchmark
// change that drops that call removes it.
func WithScheduler(SchedulerKind) Option { return engineOption(func(*Campaign) {}) }

// TraceAnalyzer is a per-fault analysis hook for analyzed campaigns: it
// receives the fault's stream index, the fault, the full faulty trace of
// its injection run, and the run's classified outcome (the same §II-A
// classification an untraced campaign would count — including NotApplied,
// which cannot be derived from the trace alone), and returns an arbitrary
// payload delivered on FaultOutcome.Analysis. It runs inside the campaign
// worker pool, so for WithParallelism > 1 it must be safe for concurrent
// calls; an error aborts the campaign.
type TraceAnalyzer func(index int, f interp.Fault, faulty *trace.Trace, outcome Outcome) (any, error)

// WithAnalysis turns the campaign into an analyzed campaign: every injection
// runs fully traced (interp.TraceFull) and its faulty trace is handed to
// analyze on the worker that ran it, so per-fault analyses parallelize with
// the injections themselves. clean must be the fault-free full trace of the
// campaign program; it serves two jobs. Its record count preallocates every
// faulty record buffer (no append growth), and each run restored from a
// checkpoint has its shared fault-free prefix copied out of it
// instead of being re-recorded — prefix snapshots stay record-free, and a
// stitched faulty trace is byte-identical to a from-step-0 traced run.
// Outcomes, ordering, early stopping, and cancellation behave exactly as in
// an untraced campaign.
func WithAnalysis(clean *trace.Trace, analyze TraceAnalyzer) Option {
	return engineOption(func(c *Campaign) { c.clean, c.analyze = clean, analyze })
}

// TraceDropper is implemented by analysis payloads that can release their
// faulty-trace reference once analysis is complete (core.FaultAnalysis drops
// FaultAnalysis.Faulty). campaign.WithDropTraces invokes it right after the
// TraceAnalyzer returns. The contract is strict: after DropTrace returns,
// the payload must hold no reference into the dropped trace's record
// buffer — the campaign recycles it (trace.PutRecs) for later injections,
// so a retained subslice would be overwritten under the payload's feet.
type TraceDropper interface {
	DropTrace()
}

// WithDropTraces is campaign.WithDropTraces.
//
// Deprecated: use campaign.WithDropTraces.
func WithDropTraces() Option { return campaign.WithDropTraces() }

// WithJournalApp is campaign.WithJournalApp.
//
// Deprecated: use campaign.WithJournalApp.
func WithJournalApp(app string) Option { return campaign.WithJournalApp(app) }

// WithStaticPrune is campaign.WithStaticPrune.
//
// Deprecated: use campaign.WithStaticPrune.
func WithStaticPrune(p *irstatic.Pruner) Option { return campaign.WithStaticPrune(p) }

// EarlyStopMinTests is the minimum number of completed injections before
// early stopping (campaign.WithEarlyStop) may end a campaign, guarding the
// normal-approximation confidence interval against tiny samples.
const EarlyStopMinTests = campaign.EarlyStopMinTests

// NewCampaign builds a campaign over the given fault population.
// MakeMachine builds a fresh machine per injection (hosts bound, RNG
// seeded); runs must be deterministic apart from the fault. Verify
// classifies a completed run's output as pass/fail; it is only consulted
// when the run status is RunOK. Campaign runs execute untraced (machine
// Mode forced to TraceOff) — unless WithAnalysis is
// set, which forces TraceFull — so Verify must classify from the run's
// output, never from its trace records.
func NewCampaign(mk func() (*interp.Machine, error), verify func(*trace.Trace) bool, targets TargetPicker, opts ...Option) (*Campaign, error) {
	c := &Campaign{mk: mk, verify: verify}
	if err := campaign.Apply(&c.cfg, c, opts); err != nil {
		return nil, fmt.Errorf("inject: %w", err)
	}
	if c.mk == nil || c.verify == nil || targets == nil {
		return nil, fmt.Errorf("inject: incomplete campaign (need MakeMachine, Verify and a TargetPicker)")
	}
	d, err := campaign.New(c.cfg, targets, campaign.Executor[FaultOutcome]{
		Engine:   journal.EngineInject,
		Config:   "inject",
		Analyzed: c.analyze != nil,
		Plan:     c.plan,
		Record: func(fo FaultOutcome) journal.Record {
			return journal.Record{Index: uint64(fo.Index), Outcome: uint8(fo.Outcome), Fault: fo.Fault}
		},
		Replay: func(r journal.Record) FaultOutcome {
			return FaultOutcome{Index: int(r.Index), Fault: r.Fault, Outcome: Outcome(r.Outcome)}
		},
	})
	if err != nil {
		return nil, err
	}
	c.Campaign = d
	if c.analyze != nil {
		if c.clean == nil || c.clean.Recs.Len() == 0 {
			return nil, fmt.Errorf("inject: analyzed campaign needs the fault-free full trace (WithAnalysis clean argument)")
		}
		// Prefix stitching cuts the clean records by Step, which is only
		// sound when record steps are monotonic (trace.StepsMonotonic). For
		// other programs analyzed injections replay traced from step 0
		// (correct, just without the prefix-sharing speedup).
		c.stitch = trace.StepsMonotonic(c.clean.Recs)
	}
	return c, nil
}

// FaultOutcome is one per-fault record of a streaming campaign: the drawn
// fault (step, bit, kind and — for memory faults — address) and its §II-A
// outcome. Index is the fault's position in the pre-drawn stream; Stream
// yields outcomes in increasing Index order, so for a fixed seed the
// sequence is deterministic whatever the parallelism.
type FaultOutcome struct {
	Index   int
	Fault   interp.Fault
	Outcome Outcome
	// Analysis is the TraceAnalyzer payload of an analyzed campaign
	// (WithAnalysis); nil otherwise. Equality-comparing FaultOutcome values
	// is only meaningful for untraced campaigns.
	Analysis any
}

// plan is the engine's window planner (campaign.Executor.Plan): the
// checkpoint forward pass over the window's faults, then the per-fault
// runner. Checkpoints are useless for an
// analyzed campaign that cannot stitch the clean prefix (non-monotonic
// record steps): such runs replay traced from step 0, so the planning pass
// is skipped entirely.
func (c *Campaign) plan(ctx context.Context, faults []interp.Fault, live []int) (func(int) (FaultOutcome, error), error) {
	var plan *checkpointPlan
	if c.analyze == nil || c.stitch {
		var err error
		if plan, err = c.planCheckpoints(ctx, faults, live); err != nil {
			return nil, err
		}
	}
	return func(i int) (FaultOutcome, error) {
		o, payload, err := c.runFault(i, faults[i], plan)
		if err != nil {
			return FaultOutcome{}, err
		}
		return FaultOutcome{Index: i, Fault: faults[i], Outcome: o, Analysis: payload}, nil
	}, nil
}

// runFault executes one injection from its planned checkpoint — from step 0
// when plan is nil.
func (c *Campaign) runFault(i int, f interp.Fault, plan *checkpointPlan) (Outcome, any, error) {
	if plan != nil {
		return plan.runFault(c, i, f)
	}
	if c.analyze != nil {
		return c.runTraced(i, f, nil)
	}
	o, err := RunOne(c.mk, c.verify, f)
	return o, nil, err
}

// runTraced runs one injection with full tracing — restoring from snap when
// non-nil, else from step 0 — and applies the analysis hook to the faulty
// trace. Restored runs are primed with the clean trace's matching prefix
// records, so the stitched trace equals a from-step-0 traced run.
func (c *Campaign) runTraced(i int, f interp.Fault, snap *interp.Snapshot) (Outcome, any, error) {
	m, err := c.mk()
	if err != nil {
		return NotApplied, nil, fmt.Errorf("inject: make machine: %w", err)
	}
	m.Mode = interp.TraceFull
	m.Fault = &f
	// TraceHint is deliberately left unset until after Restore: a restored
	// record-free snapshot would preallocate a clean-trace-sized buffer that
	// PrimeTrace immediately replaces.
	hint := uint64(c.clean.Recs.Len()) + 64
	var tr *trace.Trace
	if snap != nil {
		if rerr := m.Restore(snap); rerr == nil {
			m.PrimeTrace(c.clean.Recs.StepPrefix(snap.Step()), hint)
			tr, err = m.Resume()
		} else {
			// Restore can only fail when MakeMachine rebuilds its program
			// per call; replay this same (still unstarted) machine from
			// step 0, which is always correct.
			m.TraceHint = hint
			tr, err = m.Run()
		}
	} else {
		m.TraceHint = hint
		tr, err = m.Run()
	}
	if err != nil {
		return NotApplied, nil, fmt.Errorf("inject: injection run: %w", err)
	}
	o := classify(m, tr, c.verify)
	payload, err := c.analyze(i, f, tr, o)
	if err != nil {
		return NotApplied, nil, fmt.Errorf("inject: analyze fault %d: %w", i, err)
	}
	if c.cfg.DropTraces {
		if d, ok := payload.(TraceDropper); ok {
			d.DropTrace()
			// The payload has released its trace reference and analysis
			// artifacts hold no aliases into the records, so the buffer can
			// seed a later injection's trace instead of being garbage.
			trace.PutRecs(tr.Recs)
			tr.Recs = trace.Recs{}
		}
	}
	return o, payload, nil
}
