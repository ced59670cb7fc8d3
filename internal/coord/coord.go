// Package coord is the shard coordinator: it runs one campaign as
// contiguous shards of its fault-index space on concurrent workers and
// merges the ordered per-shard streams back into the single deterministic
// fault-index-ordered stream a plain Run would have produced.
//
// The coordinator is a view of the campaign driver both engines already run
// on (internal/campaign): a coordinated campaign is the engine's own driver
// with the result-invariant execution settings changed — shard count, shard
// workers, journal path, progress callback. The draw, the journal, the
// early-stopping rule and the shard merge are the driver's, so for a fixed
// seed Run and Stream are byte-identical to the engine's own at any shard
// count, and a journal written by a coordinator resumes under the plain
// engine and vice versa.
package coord

import (
	"context"
	"fmt"
	"iter"

	"fliptracker/internal/campaign"
	"fliptracker/internal/inject"
	"fliptracker/internal/journal"
	"fliptracker/internal/mpi"
)

// Shard is one contiguous window [First, Last) of a campaign's fault-index
// space.
type Shard = campaign.Shard

// Plan splits the index space [0, tests) into at most shards contiguous,
// non-empty, near-equal windows in index order; their concatenation always
// reproduces [0, tests) exactly.
func Plan(tests, shards int) []Shard { return campaign.Plan(tests, shards) }

// Coordinator executes one campaign as a set of shards and re-delivers the
// merged, fault-index-ordered outcome stream (Run, Stream, Records). Build
// one with Inject or MPI, then New.
type Coordinator[O any] = campaign.Campaign[O]

// Inject adapts a single-process campaign for sharded execution. The
// campaign must be unjournaled (the coordinator journals the merged stream;
// see WithJournal) and must draw at least one fault.
func Inject(c *inject.Campaign) (*Coordinator[inject.FaultOutcome], error) { return adopt(c.Campaign) }

// MPI adapts a multi-rank campaign for sharded execution, under the same
// constraints as Inject. World outcomes keep their cross-rank propagation
// classification through the journal.
func MPI(c *mpi.Campaign) (*Coordinator[mpi.WorldOutcome], error) { return adopt(c.Campaign) }

func adopt[O any](c *campaign.Campaign[O]) (*Coordinator[O], error) {
	if c.Journaled() {
		return nil, fmt.Errorf("coord: campaign carries its own journal; journal the merged stream with coord.WithJournal instead")
	}
	if c.Tests() <= 0 {
		return nil, fmt.Errorf("coord: campaign draws no faults")
	}
	return c, nil
}

// Option configures a Coordinator at construction time.
type Option = func(*campaign.Settings)

// WithShards sets how many contiguous windows the fault-index space is
// split into; the default is a single window. Shard count is
// result-invariant: any count yields the identical merged stream.
func WithShards(n int) Option { return func(s *campaign.Settings) { s.Shards = n } }

// WithWorkers sets how many shard workers run concurrently; the default
// matches the shard count (all shards in flight at once).
func WithWorkers(n int) Option { return func(s *campaign.Settings) { s.Workers = n } }

// WithJournal makes the coordinated campaign durable: the merged stream is
// committed (written + fsync'd) to an append-only checksummed journal at
// path before each outcome is delivered, under the campaign's own journal
// identity. Resuming validates the header (journal.ErrMismatch on any
// difference), replays the committed prefix, and shards only the remaining
// index range.
func WithJournal(path string) Option { return func(s *campaign.Settings) { s.Journal = path } }

// WithProgress registers a callback invoked after each merged outcome with
// the number delivered so far (including any journal-replayed prefix) and
// the planned total. It is called sequentially in fault-index order.
func WithProgress(fn func(done, total int)) Option {
	return func(s *campaign.Settings) { s.Progress = fn }
}

// New returns the coordinated campaign: c under the given options, sharing
// c's drawn fault stream.
func New[O any](c *Coordinator[O], opts ...Option) (*Coordinator[O], error) { return c.With(opts...) }

// Runner is the engine-erased view of a coordinator — what consumers that
// multiplex campaigns across engines (the campaign service,
// internal/server) hold: the campaign's identity and size, its aggregate
// Run, and the merged stream in durable journal representation. Both
// Coordinator instantiations satisfy it.
type Runner interface {
	Tests() int
	Header() journal.Header
	Run(ctx context.Context) (inject.Result, error)
	Records(ctx context.Context) iter.Seq2[journal.Record, error]
}
