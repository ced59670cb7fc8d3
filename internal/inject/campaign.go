package inject

import (
	"context"
	"fmt"
	"sort"

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

	pruner *irstatic.Pruner

	analyze    TraceAnalyzer
	dropTraces bool
	clean      *trace.Trace
	// stitch permits clean-prefix reuse for analyzed runs; it
	// requires the clean trace's record steps to be monotonic (see
	// NewCampaign), else analyzed injections replay traced from step 0.
	stitch bool
}

// Option configures a Campaign at construction time.
type Option func(*Campaign)

// WithTests sets the number of injections (see stats.SampleSize for the
// paper's sizing rule). With early stopping enabled this is the cap; the
// campaign may finish sooner. Required: NewCampaign rejects a campaign
// without a positive test count.
func WithTests(n int) Option { return func(c *Campaign) { c.cfg.Tests = n } }

// WithSeed makes the campaign reproducible: faults are pre-drawn from a
// single stream seeded here, so results do not depend on parallelism. The
// default seed is 0.
func WithSeed(seed int64) Option { return func(c *Campaign) { c.cfg.Seed = seed } }

// WithScheduler does nothing: every campaign runs checkpointed.
//
// Deprecated: kept only for the campaign benchmark's call; the benchmark
// change that drops that call removes it.
func WithScheduler(SchedulerKind) Option { return func(*Campaign) {} }

// WithParallelism caps worker goroutines; 0 (the default) means GOMAXPROCS.
func WithParallelism(n int) Option { return func(c *Campaign) { c.cfg.Parallelism = n } }

// WithProgress registers a callback invoked after each completed injection
// with the number of outcomes delivered so far and the planned total. It is
// called sequentially (never concurrently) in fault-index order.
func WithProgress(fn func(done, total int)) Option { return func(c *Campaign) { c.cfg.Progress = fn } }

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
	return func(c *Campaign) {
		c.clean = clean
		c.analyze = analyze
	}
}

// TraceDropper is implemented by analysis payloads that can release their
// faulty-trace reference once analysis is complete (core.FaultAnalysis drops
// FaultAnalysis.Faulty). WithDropTraces invokes it right after the
// TraceAnalyzer returns. The contract is strict: after DropTrace returns,
// the payload must hold no reference into the dropped trace's record
// buffer — the campaign recycles it (trace.PutRecs) for later injections,
// so a retained subslice would be overwritten under the payload's feet.
type TraceDropper interface {
	DropTrace()
}

// WithDropTraces makes an analyzed campaign drop each injection's faulty
// trace as soon as its TraceAnalyzer returns, by calling the payload's
// DropTrace method when it implements TraceDropper. Collected FaultOutcomes
// then hold only summary artifacts (outcome, ACL numbers, region reports),
// not the O(trace) record buffers — the knob for memory-bounded sweeps whose
// results outlive the campaign. Dropped record buffers are pooled and reused
// by later injections in the same process (see TraceDropper's aliasing
// contract). Requires WithAnalysis.
func WithDropTraces() Option { return func(c *Campaign) { c.dropTraces = true } }

// WithJournal makes the campaign durable: every emitted outcome is
// appended, in fault-index order, to an append-only checksummed journal at
// path and fsync'd before the next outcome is delivered. When path already
// holds a journal, Run and Stream resume it instead: the header is
// validated against this campaign (seed, test count, population
// fingerprint — journal.ErrMismatch on any difference), the committed
// outcomes are replayed from disk (each re-checked against the campaign's
// own drawn fault stream), and only the remaining index range is executed.
// A torn or bit-flipped tail — the signature of a kill mid-write — is
// detected by per-record CRC and cleanly truncated to the last committed
// record, so a resumed campaign's merged Result is byte-identical to an
// uninterrupted run. Parallelism may differ between the original run and
// the resume; it is result-invariant and excluded from the fingerprint. Incompatible with WithAnalysis (analysis payloads are
// not journaled).
func WithJournal(path string) Option { return func(c *Campaign) { c.cfg.Journal = path } }

// WithJournalApp labels the journal header with an application name, so a
// journal recorded for one app refuses to resume under another even when
// their populations fingerprint alike. Optional; core.Analyzer and the CLI
// set it automatically.
func WithJournalApp(app string) Option { return func(c *Campaign) { c.cfg.App = app } }

// WithStaticPrune short-circuits injections whose outcome the static
// dependence analysis (internal/irstatic) has already proven. A fault site
// classified Benign is recorded as Success, and one classified NeverFires as
// NotApplied, without running the world; Live faults execute exactly as
// before. The pruner must be built over this campaign's program and the
// SID log of its fault-free run (irstatic.NewPruner), and the campaign's
// clean run must pass Verify — the Benign guarantee is "output identical to
// the fault-free run", which only classifies Success when the fault-free
// output itself verifies (core checks this when it builds the pruner).
//
// Pruning is result-invariant: for a fixed seed the Result is byte-identical
// to the unpruned campaign's, so it stays out of the journal fingerprint and
// a journal written by a pruned campaign resumes under an unpruned one (and
// vice versa). Incompatible with WithAnalysis, whose per-fault payloads
// require the faulty trace that a pruned injection never produces.
func WithStaticPrune(p *irstatic.Pruner) Option { return func(c *Campaign) { c.pruner = p } }

// EarlyStopMinTests is the minimum number of completed injections before
// WithEarlyStop may end a campaign, guarding the normal-approximation
// confidence interval against tiny samples.
const EarlyStopMinTests = campaign.EarlyStopMinTests

// WithEarlyStop enables sequential early stopping: the campaign ends as
// soon as the success rate's confidence interval half-width (at the given
// confidence level) is within margin, instead of always running the full
// WithTests count. The paper sizes campaigns with Leveugle et al.'s
// worst-case rule (p = 0.5); when the observed rate is far from 0.5 the
// sequential rule needs fewer injections for the same interval. The
// interval is Agresti–Coull adjusted (stats.AdjustedProportionCI) so an
// all-success prefix cannot collapse it to zero width and stop the campaign
// on a biased estimate. The stop decision is evaluated on the outcome
// stream in fault-index order, so for a fixed seed it is deterministic
// whatever the parallelism.
func WithEarlyStop(confidence, margin float64) Option {
	return func(c *Campaign) {
		c.cfg.EarlyStop = true
		c.cfg.Confidence = confidence
		c.cfg.Margin = margin
	}
}

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
	for _, o := range opts {
		o(c)
	}
	if c.mk == nil || c.verify == nil || targets == nil {
		return nil, fmt.Errorf("inject: incomplete campaign (need MakeMachine, Verify and a TargetPicker)")
	}
	d, err := campaign.New(c.cfg, targets, campaign.Executor[FaultOutcome]{
		Engine: journal.EngineInject,
		Config: "inject",
		Heavy:  c.analyze != nil,
		Plan:   c.plan,
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
	if c.dropTraces && c.analyze == nil {
		return nil, fmt.Errorf("inject: WithDropTraces requires WithAnalysis")
	}
	if c.pruner != nil && c.analyze != nil {
		return nil, fmt.Errorf("inject: WithStaticPrune cannot be combined with WithAnalysis (pruned injections produce no trace to analyze)")
	}
	if c.cfg.Journal != "" && c.analyze != nil {
		return nil, fmt.Errorf("inject: WithJournal cannot be combined with WithAnalysis (analysis payloads are not journaled)")
	}
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
func (c *Campaign) plan(ctx context.Context, faults []interp.Fault, first, last int) (func(int) (FaultOutcome, error), error) {
	var plan *checkpointPlan
	if c.analyze == nil || c.stitch {
		var err error
		if plan, err = c.planCheckpoints(ctx, faults, first, last); err != nil {
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
// when plan is nil — unless the static pruner already proved its outcome,
// in which case the injection is recorded without running.
func (c *Campaign) runFault(i int, f interp.Fault, plan *checkpointPlan) (Outcome, any, error) {
	if c.pruner != nil {
		switch c.pruner.Classify(f) {
		case irstatic.Benign:
			return Success, nil, nil
		case irstatic.NeverFires:
			return NotApplied, nil, nil
		}
	}
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
			m.PrimeTrace(c.cleanPrefix(snap.Step()), hint)
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
	if c.dropTraces {
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

// cleanPrefix returns the clean-trace records covering dynamic steps below
// step — exactly the records a traced run laid down before a checkpoint
// taken at that step, since the pre-fault prefix is fault-free and
// deterministic.
func (c *Campaign) cleanPrefix(step uint64) trace.Recs {
	recs := &c.clean.Recs
	k := sort.Search(recs.Len(), func(i int) bool { return recs.Step(i) >= step })
	return recs.Slice(0, k)
}
