// Package coord is the former shard coordinator. Campaigns no longer shard:
// every campaign runs its fault stream as one window over one worker pool,
// and a campaign of either engine satisfies campaign.Runner. What is left
// here forwards to the campaign or does nothing.
//
// Deprecated: kept only for the campaign benchmark's calls; the benchmark
// change that drops those calls removes the package. Hold the engine's
// campaign as a campaign.Runner.
package coord

import (
	"fliptracker/internal/campaign"
	"fliptracker/internal/inject"
	"fliptracker/internal/mpi"
)

// Coordinator is the campaign driver.
//
// Deprecated: use campaign.Campaign.
type Coordinator[O any] = campaign.Campaign[O]

// Runner is the engine-erased campaign view.
//
// Deprecated: use campaign.Runner.
type Runner = campaign.Runner

// Option was a shard setting; every Option is now a no-op.
//
// Deprecated: campaigns do not shard.
type Option = func(*campaign.Settings)

// Inject returns the driver of a single-process campaign.
//
// Deprecated: use c.Campaign.
func Inject(c *inject.Campaign) (*Coordinator[inject.FaultOutcome], error) { return c.Campaign, nil }

// MPI returns the driver of a multi-rank campaign.
//
// Deprecated: use c.Campaign.
func MPI(c *mpi.Campaign) (*Coordinator[mpi.WorldOutcome], error) { return c.Campaign, nil }

// New returns c unchanged; opts are ignored.
//
// Deprecated: use c itself.
func New[O any](c *Coordinator[O], _ ...Option) (*Coordinator[O], error) { return c, nil }

// WithShards returns a no-op Option.
//
// Deprecated: campaigns do not shard.
func WithShards(int) Option { return func(*campaign.Settings) {} }

// WithWorkers returns a no-op Option.
//
// Deprecated: campaigns do not shard.
func WithWorkers(int) Option { return func(*campaign.Settings) {} }
