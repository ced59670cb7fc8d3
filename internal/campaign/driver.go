package campaign

import (
	"context"
	"fmt"
	"hash/fnv"
	"iter"
	"math/rand"
	"slices"

	"fliptracker/internal/interp"
	"fliptracker/internal/journal"
	"fliptracker/internal/stats"
)

// Settings are the engine-independent campaign settings, set by the shared
// options (WithTests, WithSeed, WithEarlyStop, WithJournal, ...).
type Settings struct {
	// Tests is the number of injections (the cap, under early stopping).
	Tests int
	// Seed seeds the pre-drawn fault stream.
	Seed int64
	// Parallelism caps the campaign's concurrent fault workers; 0 means
	// GOMAXPROCS.
	Parallelism int
	// Progress, when non-nil, is called after each delivered outcome
	// (journal replays included) with the number delivered so far and
	// Tests, sequentially in fault-index order.
	Progress func(done, total int)
	// EarlyStop enables the sequential stopping rule at Confidence and
	// Margin (see EarlyStopMinTests).
	EarlyStop          bool
	Confidence, Margin float64
	// Journal, when non-empty, makes the campaign durable at that path.
	Journal string
	// App labels the journal header.
	App string
	// DropTraces releases each analyzed injection's traces once its
	// analysis returns; the engine does the releasing.
	DropTraces bool
}

// Executor is one engine's share of a campaign: what a fault runs against
// and how its outcome is journaled. Everything else — drawing the fault
// stream, the journal, early stopping — is the driver's.
type Executor[O any] struct {
	// Engine tags the journal header and prefixes the driver's errors.
	Engine journal.Engine
	// Config describes the engine's outcome-determining configuration; it
	// leads the journal fingerprint (see Campaign.Header).
	Config string
	// Analyzed marks an analyzed campaign, whose outcomes carry analysis
	// payloads that pin large buffers (faulty traces, worlds): each window
	// then bounds completed-but-unemitted outcomes to twice its worker count
	// (Config.Window), so the reorder buffer cannot absorb the whole campaign
	// behind one slow early fault. DropTraces needs it; the journal
	// excludes it.
	Analyzed bool
	// Plan prepares the window of faults from index first on — the
	// checkpoint forward pass — and returns the function that runs fault i
	// of it. Faults below first were replayed from the journal and never
	// run. The returned function is called from concurrent workers.
	Plan func(ctx context.Context, faults []interp.Fault, first int) (func(i int) (O, error), error)
	// Record converts an outcome to its journal form; Replay converts a
	// committed record back.
	Record func(O) journal.Record
	Replay func(journal.Record) O
}

// Campaign is the campaign driver both engines run on. It draws the fault
// stream once, at construction; every run then delivers the per-fault
// outcomes in fault-index order — replayed from the journal, then executed
// as one window — and the stream is identical whatever the parallelism or
// restart history. A Campaign is immutable and safe to run multiple times.
type Campaign[O any] struct {
	s       Settings
	x       Executor[O]
	targets TargetPicker
	faults  []interp.Fault
}

// EarlyStopMinTests is the minimum number of completed injections before
// the early-stopping rule may end a campaign, guarding the
// normal-approximation confidence interval against tiny samples.
const EarlyStopMinTests = 48

// New validates the settings, draws the fault stream from targets and
// returns the campaign.
func New[O any](s Settings, targets TargetPicker, x Executor[O]) (*Campaign[O], error) {
	if targets == nil {
		return nil, fmt.Errorf("%v: campaign needs a TargetPicker", x.Engine)
	}
	if s.Tests <= 0 {
		return nil, fmt.Errorf("%v: campaign needs a positive test count (WithTests)", x.Engine)
	}
	if v, ok := targets.(Validator); ok {
		if err := v.Validate(); err != nil {
			return nil, err
		}
	}
	if err := x.check(s); err != nil {
		return nil, err
	}
	if s.EarlyStop {
		if !(s.Confidence > 0 && s.Confidence < 1) {
			return nil, fmt.Errorf("%v: early-stop confidence %v outside (0, 1)", x.Engine, s.Confidence)
		}
		if !(s.Margin > 0 && s.Margin < 1) {
			return nil, fmt.Errorf("%v: early-stop margin %v outside (0, 1)", x.Engine, s.Margin)
		}
	}
	c := &Campaign[O]{s: s, x: x, targets: targets, faults: make([]interp.Fault, s.Tests)}
	rng := rand.New(rand.NewSource(s.Seed))
	ip, indexed := targets.(IndexedPicker)
	for i := range c.faults {
		if indexed {
			c.faults[i] = ip.PickAt(i, rng)
		} else {
			c.faults[i] = targets.Pick(rng)
		}
	}
	return c, nil
}

// check rejects the setting combinations no campaign of the executor can
// run.
func (x *Executor[O]) check(s Settings) error {
	switch {
	case s.DropTraces && !x.Analyzed:
		return fmt.Errorf("%v: WithDropTraces requires an analyzed campaign", x.Engine)
	case s.Journal != "" && x.Analyzed:
		return fmt.Errorf("%v: WithJournal cannot be combined with analysis (analysis payloads are not journaled)", x.Engine)
	}
	return nil
}

// Tests returns the configured injection count (the cap, under early
// stopping).
func (c *Campaign[O]) Tests() int { return c.s.Tests }

// Faults returns a copy of the pre-drawn fault stream: the fault run at
// every index 0..Tests()-1. Outcomes depend on the stream alone, never on
// the order faults run in, and resumed journals are checked against it.
func (c *Campaign[O]) Faults() []interp.Fault { return slices.Clone(c.faults) }

// Header identifies the campaign for the durable journal: engine, app
// label, seed, test count, and a fingerprint of the configuration that
// determines per-index outcomes — the engine's Config, the population
// (picker type and parameters) and the stopping rule. Parallelism is
// result-invariant and stays out, so a journal resumes under a different
// one.
func (c *Campaign[O]) Header() journal.Header {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|targets=%T%+v|earlystop=%v:%g:%g",
		c.x.Config, c.targets, c.targets, c.s.EarlyStop, c.s.Confidence, c.s.Margin)
	return journal.Header{
		Engine:      c.x.Engine,
		App:         c.s.App,
		Seed:        c.s.Seed,
		Tests:       uint64(c.s.Tests),
		Fingerprint: h.Sum64(),
	}
}

// Run executes the campaign and aggregates the outcomes. On context
// cancellation it returns the well-formed partial Result accumulated so far
// together with ctx.Err().
func (c *Campaign[O]) Run(ctx context.Context) (Result, error) {
	return c.run(ctx, func(O) bool { return true })
}

// Stream executes the campaign and yields one outcome per fault in
// fault-index order. Breaking out of the loop stops the workers promptly.
// On failure — including context cancellation — the final pair carries the
// error with a zero outcome; early stopping ends the sequence without one.
func (c *Campaign[O]) Stream(ctx context.Context) iter.Seq2[O, error] {
	return seq(func(emit func(O) bool) error {
		_, err := c.run(ctx, emit)
		return err
	})
}

// Records is Stream in durable journal representation — the
// engine-independent form the campaign service stores and serves.
func (c *Campaign[O]) Records(ctx context.Context) iter.Seq2[journal.Record, error] {
	return seq(func(emit func(journal.Record) bool) error {
		_, err := c.run(ctx, func(o O) bool { return emit(c.x.Record(o)) })
		return err
	})
}

// Runner is the engine-erased view of a campaign that consumers
// multiplexing both engines hold (the campaign service, the fliptracker
// CLI): its identity and size, its aggregate Run, and its outcome stream in
// journal representation. Both engines' campaigns satisfy it.
type Runner interface {
	Tests() int
	Header() journal.Header
	Run(ctx context.Context) (Result, error)
	Records(ctx context.Context) iter.Seq2[journal.Record, error]
}

// seq adapts a push-style run to an iterator whose final pair carries the
// run's error, unless the consumer stopped the run itself.
func seq[T any](run func(emit func(T) bool) error) iter.Seq2[T, error] {
	return func(yield func(T, error) bool) {
		broke := false
		err := run(func(v T) bool {
			broke = !yield(v, nil)
			return !broke
		})
		if err != nil && !broke {
			var zero T
			yield(zero, err)
		}
	}
}

// stopEarly reports whether the sequential stopping rule is satisfied by
// the outcomes counted so far: the success rate's Agresti–Coull interval
// half-width (stats.AdjustedProportionCI) is within the margin. It depends
// only on aggregate counts in fault-index order, so it fires at the same
// index whatever the parallelism or restart history.
func (c *Campaign[O]) stopEarly(res Result) bool {
	if !c.s.EarlyStop || res.Tests < EarlyStopMinTests || res.Tests >= c.s.Tests {
		return false
	}
	return stats.AdjustedProportionCI(res.Success, res.Tests, c.s.Confidence) <= c.s.Margin
}

// run drives one campaign run: replay the journal's committed prefix
// (checking each record against the drawn stream), execute the rest,
// commit each fresh outcome (written + fsync'd) before delivering it, and
// count outcomes for the Result and the stopping rule. emit returning false
// stops the run; cancelling ctx stops it with ctx.Err(). No goroutines
// outlive the call.
func (c *Campaign[O]) run(ctx context.Context, emit func(O) bool) (Result, error) {
	var res Result
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return res, err
	}
	deliver := func(o O) bool {
		res.Count(Outcome(c.x.Record(o).Outcome))
		if c.s.Progress != nil {
			c.s.Progress(res.Tests, len(c.faults))
		}
		return emit(o) && !c.stopEarly(res)
	}
	if c.s.Journal == "" {
		return res, c.window(ctx, 0, deliver)
	}

	j, recs, err := journal.OpenOrCreate(c.s.Journal, c.Header())
	if err != nil {
		return res, err
	}
	defer j.Close()
	for _, r := range recs {
		i := int(r.Index)
		if i >= len(c.faults) || r.Fault != c.faults[i] {
			return res, fmt.Errorf("%v: journal %s record %d (%v) does not match this campaign's fault stream: %w",
				c.x.Engine, c.s.Journal, i, &r.Fault, journal.ErrMismatch)
		}
		if !deliver(c.x.Replay(r)) {
			return res, nil
		}
	}
	var appendErr error
	err = c.window(ctx, len(recs), func(o O) bool {
		if appendErr = j.Append(c.x.Record(o)); appendErr != nil {
			return false
		}
		return deliver(o)
	})
	if err == nil && appendErr != nil {
		err = fmt.Errorf("%v: journal append: %w", c.x.Engine, appendErr)
	}
	return res, err
}

// window plans the fault-index window [first, Tests()) and fans it out
// over the ordered worker pool (Run).
func (c *Campaign[O]) window(ctx context.Context, first int, emit func(O) bool) error {
	items := len(c.faults)
	if items <= first {
		return nil
	}
	run, err := c.x.Plan(ctx, c.faults, first)
	if err != nil {
		return err
	}
	w := workers(c.s.Parallelism, items-first)
	window := 0
	if c.x.Analyzed {
		window = 2 * w
	}
	return Run(ctx, Config{Items: items, First: first, Workers: w, Window: window}, run, emit)
}
