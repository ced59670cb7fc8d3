package inject

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"fliptracker/internal/campaign"
	"fliptracker/internal/interp"
	"fliptracker/internal/journal"
	"fliptracker/internal/trace"
)

// Campaign is one configured fault-injection campaign. Build it with
// NewCampaign, then execute it with Run for the aggregate Result or consume
// it fault by fault with Stream. The embedded driver (internal/campaign)
// draws the fault stream once, at construction, and owns the journal and
// early stopping; the engine supplies only how one fault runs. A
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

	// tail memoizes the fault-free run's final trace, which every untraced
	// injection that reconverges with a clean checkpoint ends in.
	tail struct {
		once sync.Once
		tr   *trace.Trace
		err  error
	}
}

// Option configures a Campaign at construction time: one of the options
// both engines share (campaign.WithTests, WithSeed, WithParallelism,
// WithProgress, WithEarlyStop, WithDropTraces, WithJournal, WithJournalApp)
// or WithAnalysis. An MPI engine option makes NewCampaign fail.
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

// WithDropTraces is campaign.WithDropTraces.
//
// Deprecated: use campaign.WithDropTraces.
func WithDropTraces() Option { return campaign.WithDropTraces() }

// WithJournalApp is campaign.WithJournalApp.
//
// Deprecated: use campaign.WithJournalApp.
func WithJournalApp(app string) Option { return campaign.WithJournalApp(app) }

// WithStaticPrune does nothing: an untraced injection already stops once it
// reconverges with the clean run, which leaves static pruning nothing to
// save. It accepts any value, such as a core.StaticPruner.
//
// Deprecated: kept only for the campaign benchmark's call; the benchmark
// change that drops that call removes it.
func WithStaticPrune(any) Option { return engineOption(func(*Campaign) {}) }

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
//
// Host functions must keep no state outside the machine, as checkpoint
// restore already assumes: a run's future then depends only on its machine
// state. An untraced injection whose state equals a later clean checkpoint's
// therefore stops there and takes the fault-free run's final trace,
// computed once per campaign, as its own (see resume). Several workers may
// verify that one trace at once, so Verify must not modify its argument.
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
	if c.analyze != nil && (c.clean == nil || c.clean.Recs.Len() == 0) {
		return nil, fmt.Errorf("inject: analyzed campaign needs the fault-free full trace (WithAnalysis clean argument)")
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
// runner.
func (c *Campaign) plan(ctx context.Context, faults []interp.Fault, first int) (func(int) (FaultOutcome, error), error) {
	snaps := make([]*interp.Snapshot, len(faults))
	cps, err := c.planCheckpoints(ctx, faults, first, snaps)
	if err != nil {
		return nil, err
	}
	return func(i int) (FaultOutcome, error) { return c.runFault(i, faults[i], snaps[i], cps) }, nil
}

// runFault executes injection i — restored from snap when non-nil, else
// from step 0 — and classifies it. A restored untraced run is compared with
// the later clean checkpoints cps (ascending by step) on its way, and stops
// at the first it reconverges with. An analyzed campaign runs it fully
// traced and hands the faulty trace to the analysis hook; a restored traced
// run is primed with the clean trace's records up to its checkpoint
// (interp.Machine.PrimeTrace), so the stitched trace equals a from-step-0
// traced run.
func (c *Campaign) runFault(i int, f interp.Fault, snap *interp.Snapshot, cps []*interp.Snapshot) (FaultOutcome, error) {
	m, err := c.mk()
	if err != nil {
		return FaultOutcome{}, fmt.Errorf("inject: make machine: %w", err)
	}
	m.Mode = interp.TraceOff
	m.Fault = &f
	if c.analyze != nil {
		m.Mode = interp.TraceFull
	}
	// TraceHint stays unset across Restore: a restored record-free snapshot
	// would preallocate a clean-trace-sized buffer that PrimeTrace
	// immediately replaces.
	var tr *trace.Trace
	if snap != nil && m.Restore(snap) == nil {
		if c.analyze != nil {
			m.PrimeTrace(&c.clean.Recs)
			tr, err = m.Resume()
		} else {
			tr, err = c.resume(m, f.Step, cps)
		}
	} else {
		// No checkpoint, or Restore failed — it fails only when MakeMachine
		// rebuilds its program per call, so snapshots cannot be shared.
		// Run this same (still unstarted) machine from step 0, which is
		// always correct.
		if c.analyze != nil {
			m.TraceHint = uint64(c.clean.Recs.Len()) + 64
		}
		tr, err = m.Run()
	}
	if err != nil {
		return FaultOutcome{}, fmt.Errorf("inject: injection run: %w", err)
	}
	fo := FaultOutcome{Index: i, Fault: f, Outcome: campaign.Classify(tr.Status, m.FaultApplied, func() bool { return c.verify(tr) })}
	if c.analyze == nil {
		return fo, nil
	}
	if fo.Analysis, err = c.analyze(i, f, tr, fo.Outcome); err != nil {
		return FaultOutcome{}, fmt.Errorf("inject: analyze fault %d: %w", i, err)
	}
	if d, ok := fo.Analysis.(campaign.TraceDropper); ok && c.cfg.DropTraces {
		d.DropTrace()
		// The payload has released its trace reference and analysis
		// artifacts hold no aliases into the records, so the buffer can
		// seed a later injection's trace instead of being garbage.
		trace.PutRecs(tr.Recs)
		tr.Recs = trace.Recs{}
	}
	return fo, nil
}

// resume runs a restored untraced injection to its end. On the way it
// pauses at the 1st, 2nd, 4th, 8th, … clean checkpoint after the fault step
// (so about log2 of the checkpoints left are compared) and checks whether
// the machine's state equals the checkpoint's. From an equal state the run
// replays the fault-free run's tail, so the fault-free final trace stands in
// for the rest of the run. FaultApplied is final by then: the fault step is
// past and no frame holds a pending return-value flip.
func (c *Campaign) resume(m *interp.Machine, faultStep uint64, cps []*interp.Snapshot) (*trace.Trace, error) {
	k := sort.Search(len(cps), func(j int) bool { return cps[j].Step() > faultStep })
	for n := 1; k+n-1 < len(cps); n *= 2 {
		cp := cps[k+n-1]
		paused, err := m.RunUntil(cp.Step())
		if err != nil {
			return nil, err
		}
		if !paused {
			break
		}
		if m.SameState(cp) {
			if testHookReconverged != nil {
				testHookReconverged(cp.Step())
			}
			return c.cleanEnd(cp)
		}
	}
	return m.Resume()
}

// testHookReconverged, when set by the package's tests, is called with the
// step of every checkpoint an injection reconverged at.
var testHookReconverged func(step uint64)

// cleanEnd returns the fault-free run's final trace, memoized per campaign.
// The first reconverged injection computes it from its matching checkpoint,
// paying for the tail it would have run anyway.
func (c *Campaign) cleanEnd(cp *interp.Snapshot) (*trace.Trace, error) {
	c.tail.once.Do(func() {
		m, err := c.mk()
		if err == nil {
			m.Mode = interp.TraceOff
			err = m.Restore(cp)
		}
		if err == nil {
			c.tail.tr, err = m.Resume()
		}
		c.tail.err = err
	})
	return c.tail.tr, c.tail.err
}
