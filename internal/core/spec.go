package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"fliptracker/internal/apps"
	"fliptracker/internal/campaign"
)

// Spec describes one campaign of either engine: everything that determines
// its outcome stream, plus the result-invariant parallelism. The campaign
// service decodes it from a request body (unknown fields refused) and the
// fliptracker CLI fills it from its flags; both check it with Validate and
// build it with Build, so a setting means the same thing on every front
// end.
type Spec struct {
	// ID names the campaign; one is generated when empty. Re-submitting an
	// untracked ID against a durable server resumes its journal — the
	// restart-resume path — so clients that need exactly-once campaigns
	// across server restarts supply their own stable IDs.
	ID string `json:"id,omitempty"`
	// App is a registered application (fliptracker.Apps).
	App string `json:"app"`
	// Engine selects the campaign engine: "inject" (single-process) or
	// "mpi" (multi-rank worlds).
	Engine string `json:"engine"`
	// Population selects the inject engine's fault population; nil means
	// whole-program. The MPI engine always targets the injected rank's
	// whole run.
	Population *PopulationSpec `json:"population,omitempty"`
	Seed       int64           `json:"seed"`
	Tests      int             `json:"tests"`
	// Parallelism caps the concurrent fault workers (result-invariant).
	Parallelism int `json:"parallelism,omitempty"`
	// Shards is validated against MaxShards and otherwise ignored: every
	// campaign runs as one window.
	//
	// Deprecated: kept so existing clients' specs still decode; the
	// campaign benchmark change that stops sending it removes it.
	Shards int `json:"shards,omitempty"`
	// EarlyStop, when set, enables the sequential stopping rule.
	EarlyStop *EarlyStopSpec `json:"early_stop,omitempty"`
	// StaticPrune is accepted and ignored: plain MPI campaigns always skip
	// the faults that cannot fire, and inject campaigns never do.
	//
	// Deprecated: kept so existing clients' specs still decode; the
	// campaign benchmark change that stops sending it removes it.
	StaticPrune bool `json:"static_prune,omitempty"`
	// Ranks and FaultRank shape MPI worlds; ignored by the inject engine.
	Ranks     int `json:"ranks,omitempty"`
	FaultRank int `json:"fault_rank,omitempty"`
}

// PopulationSpec selects an inject fault population by kind:
// "whole-program" (default), "region-internal", "region-inputs", "hybrid".
type PopulationSpec struct {
	Kind     string `json:"kind"`
	Region   string `json:"region,omitempty"`
	Instance int    `json:"instance,omitempty"`
}

// EarlyStopSpec carries the Agresti–Coull stopping rule parameters.
type EarlyStopSpec struct {
	Confidence float64 `json:"confidence"`
	Margin     float64 `json:"margin"`
}

// Spec bounds. The fault stream is drawn up front, so Tests sizes a
// campaign's memory; every parallel slot holds a machine or a world; and
// each world shape caches one fully traced clean world. MaxShards only
// bounds the deprecated Shards. MaxRanks is the paper's world size, which
// ftbench's Figure 4 study also runs (-ranks 64).
const (
	MaxTests       = 1 << 20
	MaxRanks       = 64
	MaxShards      = 64
	MaxParallelism = 256
)

// Validate checks the spec without building anything: a registered app, a
// known engine, counts within the Spec bounds, a world shape for the MPI
// engine (which takes no population) and a well-formed population and
// stopping rule.
func (s *Spec) Validate() error {
	if s.App == "" {
		return fmt.Errorf("app is required")
	}
	if _, ok := apps.Get(s.App); !ok {
		return fmt.Errorf("unknown app %q (have %v)", s.App, apps.Names())
	}
	if s.Engine != "inject" && s.Engine != "mpi" {
		return fmt.Errorf("engine must be %q or %q", "inject", "mpi")
	}
	if s.Tests <= 0 || s.Tests > MaxTests {
		return fmt.Errorf("tests must be in [1, %d]", MaxTests)
	}
	if s.Parallelism < 0 || s.Parallelism > MaxParallelism {
		return fmt.Errorf("parallelism must be in [0, %d]", MaxParallelism)
	}
	if s.Shards < 0 || s.Shards > MaxShards {
		return fmt.Errorf("shards must be in [0, %d]", MaxShards)
	}
	if s.Engine == "mpi" {
		if s.Ranks < 1 || s.Ranks > MaxRanks {
			return fmt.Errorf("mpi engine needs ranks in [1, %d]", MaxRanks)
		}
		if s.FaultRank < 0 || s.FaultRank >= s.Ranks {
			return fmt.Errorf("fault_rank %d outside world [0, %d)", s.FaultRank, s.Ranks)
		}
		if s.Population != nil {
			return fmt.Errorf("population applies to the inject engine only")
		}
	}
	if s.Population != nil {
		switch s.Population.Kind {
		case "", "whole-program", "hybrid":
		case "region-internal", "region-inputs":
			if s.Population.Region == "" {
				return fmt.Errorf("population kind %q needs a region", s.Population.Kind)
			}
		default:
			return fmt.Errorf("unknown population kind %q", s.Population.Kind)
		}
	}
	if es := s.EarlyStop; es != nil {
		if !(es.Confidence > 0 && es.Confidence < 1 && es.Margin > 0 && es.Margin < 1) {
			return fmt.Errorf("early_stop confidence and margin must be in (0, 1)")
		}
	}
	return nil
}

// Population returns the population p selects; nil or an empty kind
// selects whole-program.
func (p *PopulationSpec) Population() Population {
	if p == nil {
		return Population{}
	}
	return Population{kind: p.Kind, region: p.Region, instance: p.Instance}
}

// Options returns the shared campaign options the spec sets: tests, seed,
// parallelism and the stopping rule.
func (s *Spec) Options() []campaign.Option {
	opts := []campaign.Option{
		campaign.WithTests(s.Tests),
		campaign.WithSeed(s.Seed),
		campaign.WithParallelism(s.Parallelism),
	}
	if es := s.EarlyStop; es != nil {
		opts = append(opts, campaign.WithEarlyStop(es.Confidence, es.Margin))
	}
	return opts
}

// Build builds the validated spec's campaign on analyzers from src, durable
// at journal unless that is empty (campaign.WithJournal). Its Records are
// the fault-index-ordered stream, whatever the parallelism.
func (s *Spec) Build(src *Analyzers, journal string) (campaign.Runner, error) {
	opts := append(s.Options(), campaign.WithJournal(journal))
	switch s.Engine {
	case "inject":
		an, err := src.Analyzer(s.App)
		if err != nil {
			return nil, err
		}
		c, err := an.NewCampaign(s.Population.Population(), opts...)
		if err != nil {
			return nil, err
		}
		return c.Campaign, nil
	case "mpi":
		ma, err := src.MPIAnalyzer(s.App, s.Ranks, s.FaultRank)
		if err != nil {
			return nil, err
		}
		c, err := ma.NewCampaign(nil, opts...)
		if err != nil {
			return nil, err
		}
		return c.Campaign, nil
	}
	return nil, fmt.Errorf("core: unknown engine %q", s.Engine)
}

// Analyzers builds each analyzer once and shares it among campaigns: one
// clean trace and clean index per app, and per world shape (ranks, fault
// rank) for MPI, since the clean world depends on it, with the clean SID
// log every plain MPI campaign of that shape skips faults by. A failed
// build is cached too. The zero value is ready to use; nothing is evicted,
// which Spec's bounds keep finite.
type Analyzers struct {
	mu    sync.Mutex
	m     map[analyzerKey]*analyzerEntry
	built atomic.Int64
}

type analyzerKey struct {
	app              string
	mpi              bool
	ranks, faultRank int
}

type analyzerEntry struct {
	once sync.Once
	an   *Analyzer
	ma   *MPIAnalyzer
	err  error
}

// Analyzer returns app's analyzer.
func (a *Analyzers) Analyzer(app string) (*Analyzer, error) {
	e := a.get(analyzerKey{app: app})
	return e.an, e.err
}

// MPIAnalyzer returns app's MPI analyzer for worlds of ranks ranks with
// faults injected into faultRank.
func (a *Analyzers) MPIAnalyzer(app string, ranks, faultRank int) (*MPIAnalyzer, error) {
	e := a.get(analyzerKey{app, true, ranks, faultRank})
	return e.ma, e.err
}

// Built returns how many analyzers have been built.
func (a *Analyzers) Built() int64 { return a.built.Load() }

func (a *Analyzers) get(k analyzerKey) *analyzerEntry {
	a.mu.Lock()
	e := a.m[k]
	if e == nil {
		if a.m == nil {
			a.m = make(map[analyzerKey]*analyzerEntry)
		}
		e = &analyzerEntry{}
		a.m[k] = e
	}
	a.mu.Unlock()
	e.once.Do(func() {
		if !k.mpi {
			e.an, e.err = NewAnalyzer(k.app)
		} else if e.ma, e.err = NewMPIAnalyzer(k.app, k.ranks); e.err == nil {
			e.ma.FaultRank = k.faultRank
		}
		if e.err == nil {
			a.built.Add(1)
		}
	})
	return e
}
