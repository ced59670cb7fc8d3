// Package coord is the former shard coordinator. Sharding is now a setting
// of the campaign driver (campaign.WithShards), and a campaign of either
// engine satisfies campaign.Runner; what is left here forwards to those.
//
// Deprecated: build the engine's campaign with campaign.WithShards and hold
// it as a campaign.Runner.
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

// Option changes a campaign's execution settings (see New).
//
// Deprecated: use campaign.WithShards at construction.
type Option = func(*campaign.Settings)

// Inject returns the driver of a single-process campaign.
//
// Deprecated: use c.Campaign.
func Inject(c *inject.Campaign) (*Coordinator[inject.FaultOutcome], error) { return c.Campaign, nil }

// MPI returns the driver of a multi-rank campaign.
//
// Deprecated: use c.Campaign.
func MPI(c *mpi.Campaign) (*Coordinator[mpi.WorldOutcome], error) { return c.Campaign, nil }

// New returns c with its execution settings changed by opts.
//
// Deprecated: use campaign.WithShards at construction.
func New[O any](c *Coordinator[O], opts ...Option) (*Coordinator[O], error) { return c.With(opts...) }

// WithShards sets the shard count.
//
// Deprecated: use campaign.WithShards.
func WithShards(n int) Option { return func(s *campaign.Settings) { s.Shards = n } }

// WithWorkers bounds the concurrently running shards.
//
// Deprecated: shard workers default to the shard count.
func WithWorkers(n int) Option { return func(s *campaign.Settings) { s.Workers = n } }
