package campaign

import "fmt"

// Option configures a campaign of either engine at construction time. The
// settings both engines share are defined here, once; each engine adds its
// own options as EngineOption values of its campaign type. Handing one
// engine's option to the other engine's constructor is a construction
// error.
type Option interface{ option() }

// setting is a shared option: it sets the engine-independent Settings.
type setting func(*Settings)

func (setting) option() {}

// EngineOption is an option of the engine whose campaign type is E.
type EngineOption[E any] func(*E)

func (EngineOption[E]) option() {}

// Apply applies opts in order: shared options to s, options of engine E to
// e. An option of another engine is an error.
func Apply[E any](s *Settings, e *E, opts []Option) error {
	for _, o := range opts {
		switch o := o.(type) {
		case setting:
			o(s)
		case EngineOption[E]:
			o(e)
		default:
			return fmt.Errorf("option %T belongs to another engine", o)
		}
	}
	return nil
}

// WithTests sets the number of injections (see stats.SampleSize for the
// paper's sizing rule). With early stopping it is the cap; the campaign may
// finish sooner. Required for an injecting campaign.
func WithTests(n int) Option { return setting(func(s *Settings) { s.Tests = n }) }

// WithSeed seeds the pre-drawn fault stream, so the outcomes do not depend
// on parallelism. The default seed is 0. (For MPI campaigns this
// seeds the fault stream only; the world's Config.Seed seeds the ranks.)
func WithSeed(seed int64) Option { return setting(func(s *Settings) { s.Seed = seed }) }

// WithParallelism caps the concurrently running injections (machines or
// worlds); 0, the default, means GOMAXPROCS.
func WithParallelism(n int) Option { return setting(func(s *Settings) { s.Parallelism = n }) }

// WithProgress registers a callback invoked after each delivered outcome,
// journal replays included, with the number delivered so far and the
// planned total. It is called sequentially, in fault-index order.
func WithProgress(fn func(done, total int)) Option {
	return setting(func(s *Settings) { s.Progress = fn })
}

// WithEarlyStop enables sequential early stopping: the campaign ends as soon
// as the success rate's Agresti–Coull confidence interval half-width
// (stats.AdjustedProportionCI, at the given confidence level) is within
// margin, never before EarlyStopMinTests outcomes, instead of always running
// the full WithTests count. The paper sizes campaigns with Leveugle et al.'s
// worst-case rule (p = 0.5); when the observed rate is far from 0.5 the
// sequential rule needs fewer injections for the same interval. The rule
// reads the outcome stream in fault-index order, so for a fixed seed it
// stops at the same index whatever the parallelism.
func WithEarlyStop(confidence, margin float64) Option {
	return setting(func(s *Settings) {
		s.EarlyStop, s.Confidence, s.Margin = true, confidence, margin
	})
}

// WithDropTraces makes an analyzed campaign release each injection's faulty
// trace (every rank's, for a world) as soon as its analysis hook returns, by
// calling the payload's DropTrace method when it has one. Collected outcomes
// then hold only summary artifacts — the knob for memory-bounded sweeps. The
// released record buffers are pooled for later injections, so the payload
// must keep no reference into them. Requires an analyzed campaign.
func WithDropTraces() Option { return setting(func(s *Settings) { s.DropTraces = true }) }

// TraceDropper is implemented by analysis payloads that can release their
// faulty-trace references once analysis is complete (core.FaultAnalysis
// drops FaultAnalysis.Faulty). WithDropTraces makes the engines invoke it
// right after the analysis hook returns. The contract is strict: after
// DropTrace returns, the payload must hold no reference into the dropped
// traces' record buffers — the engine recycles them (trace.PutRecs) for
// later injections, so a retained subslice would be overwritten under the
// payload's feet.
type TraceDropper interface {
	DropTrace()
}

// WithJournal makes the campaign durable: every outcome is appended, in
// fault-index order, to an append-only checksummed journal at path and
// fsync'd before it is delivered. When path already holds a journal, a run
// resumes it: the header is checked against this campaign (engine, app,
// seed, test count, configuration fingerprint — journal.ErrMismatch on any
// difference), the committed outcomes are replayed from disk, each checked
// against the drawn fault stream, and only the rest executes. A torn or
// bit-flipped tail is truncated to the last committed record, so a resumed
// campaign's Result is byte-identical to an uninterrupted run. Parallelism
// may change between runs. It excludes analysis, whose payloads are not
// journaled. An empty path journals nothing.
func WithJournal(path string) Option { return setting(func(s *Settings) { s.Journal = path }) }

// WithJournalApp labels the journal header with an application name, so a
// journal recorded for one app refuses to resume under another even when
// their populations fingerprint alike. core's analyzers set it; MPI
// campaigns default to the program's name.
func WithJournalApp(app string) Option { return setting(func(s *Settings) { s.App = app }) }
