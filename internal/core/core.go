// Package core is FlipTracker's orchestration layer: it wires the tracer,
// the code-region model, the DDDG, the ACL table and the pattern detectors
// into the end-to-end pipeline of Figure 1 — (a) partition the application
// into code regions, (b)-(c) run fault injections, (d) analyze corrupted
// variables and extract resilience computation patterns.
package core

import (
	"context"
	"fmt"
	"sync"

	"fliptracker/internal/acl"
	"fliptracker/internal/apps"
	"fliptracker/internal/campaign"
	"fliptracker/internal/dddg"
	"fliptracker/internal/inject"
	"fliptracker/internal/interp"
	"fliptracker/internal/ir"
	"fliptracker/internal/patterns"
	"fliptracker/internal/trace"
)

// Analyzer drives the FlipTracker pipeline for one application.
type Analyzer struct {
	App  *apps.App
	Prog *ir.Program

	// Scheduler is ignored: every campaign runs checkpointed.
	//
	// Deprecated: kept only for the campaign benchmark's
	// inject.WithScheduler call; the benchmark change that drops that call
	// removes it.
	Scheduler inject.SchedulerKind

	cleanOnce sync.Once
	clean     *trace.Trace
	cleanErr  error

	indexOnce sync.Once
	index     *CleanIndex
	indexErr  error

	// The deprecated StaticPruner's cache.
	prunerOnce sync.Once
	pruner     *StaticPruner
	prunerErr  error
}

// NewAnalyzer builds an analyzer for a registered application.
func NewAnalyzer(appName string) (*Analyzer, error) {
	a, ok := apps.Get(appName)
	if !ok {
		return nil, fmt.Errorf("core: unknown application %q (have %v)", appName, apps.Names())
	}
	p, err := a.Program()
	if err != nil {
		return nil, err
	}
	return &Analyzer{App: a, Prog: p}, nil
}

// CleanTrace returns the cached fault-free full trace (Figure 1 step (a)).
func (an *Analyzer) CleanTrace() (*trace.Trace, error) {
	an.cleanOnce.Do(func() {
		an.clean, an.cleanErr = an.App.CleanTrace(interp.TraceFull)
	})
	return an.clean, an.cleanErr
}

// Region resolves a region by name.
func (an *Analyzer) Region(name string) (ir.Region, error) {
	r, ok := an.Prog.RegionByName(name)
	if !ok {
		return ir.Region{}, fmt.Errorf("core: %s has no region %q", an.App.Name, name)
	}
	return r, nil
}

// RegionInstance returns the clean-trace span of one region instance,
// resolved against the shared CleanIndex (the clean trace is split into
// region spans exactly once per analyzer).
func (an *Analyzer) RegionInstance(name string, instance int) (trace.Span, error) {
	r, err := an.Region(name)
	if err != nil {
		return trace.Span{}, err
	}
	ix, err := an.Index()
	if err != nil {
		return trace.Span{}, err
	}
	s, ok := ix.Instance(int32(r.ID), instance)
	if !ok {
		return trace.Span{}, fmt.Errorf("core: %s region %q has no instance %d", an.App.Name, name, instance)
	}
	return s, nil
}

// RegionInputLocs identifies the memory input locations of a region instance
// via its DDDG (Figure 1 step (b): "identify the input and output variables
// of each code region"). The result is cached in the CleanIndex; callers
// must not mutate it.
func (an *Analyzer) RegionInputLocs(name string, instance int) ([]trace.Loc, error) {
	s, err := an.RegionInstance(name, instance)
	if err != nil {
		return nil, err
	}
	ix, err := an.Index()
	if err != nil {
		return nil, err
	}
	return ix.InputLocs(s), nil
}

// RegionDDDG returns the DDDG of a clean region instance, built once and
// cached in the CleanIndex. The graph is shared: treat it as read-only.
func (an *Analyzer) RegionDDDG(name string, instance int) (*dddg.Graph, error) {
	s, err := an.RegionInstance(name, instance)
	if err != nil {
		return nil, err
	}
	ix, err := an.Index()
	if err != nil {
		return nil, err
	}
	return ix.Graph(s), nil
}

// RegionReport is the per-region-instance view of one fault analysis.
type RegionReport struct {
	Region   ir.Region
	Instance int
	// Comparison classifies the §III-D cases (corrupted inputs/outputs,
	// error magnitudes, Case 1/Case 2).
	Comparison *dddg.RegionComparison
	// Patterns are the resilience computation patterns detected inside
	// this instance.
	Patterns *patterns.Detection
	// ACLDrop is how far the alive-corrupted-location count fell from its
	// in-span peak by the end of the span.
	ACLDrop int32
}

// FaultAnalysis is the complete fine-grained analysis of one faulty run.
type FaultAnalysis struct {
	Fault   interp.Fault
	Faulty  *trace.Trace
	Outcome inject.Outcome
	// ACL is the alive-corrupted-locations analysis (§III-C); nil when the
	// faulty run crashed so early no trace was collected.
	ACL *acl.Result
	// Regions reports every region instance the corruption touched.
	Regions []RegionReport
}

// DropTrace releases the faulty trace, keeping only the analysis artifacts —
// the campaign.TraceDropper hook behind campaign.WithDropTraces, for
// memory-bounded analyzed sweeps whose collected results outlive the
// campaign.
func (fa *FaultAnalysis) DropTrace() { fa.Faulty = nil }

// PatternsFound aggregates pattern detections across all touched regions.
func (fa *FaultAnalysis) PatternsFound() [patterns.NumPatterns]bool {
	var out [patterns.NumPatterns]bool
	for _, rr := range fa.Regions {
		if rr.Patterns == nil {
			continue
		}
		for p := 0; p < patterns.NumPatterns; p++ {
			if rr.Patterns.Found[p] {
				out[p] = true
			}
		}
	}
	return out
}

// AnalyzeFault runs the app once with the fault under full tracing,
// classifies the run as a campaign classifies it (campaign.Classify, with
// the machine's FaultApplied and the app's verifier), and analyzes it
// against the analyzer's shared index (CleanIndex.AnalyzeTrace, Figure 1
// steps (c)-(d)): all clean-run artifacts (region spans, clean DDDGs, input
// locations) come from the index instead of being re-derived per fault. For
// many faults, prefer AnalyzedCampaign/StreamAnalysis, which also share
// fault-free prefix work and parallelize across a worker pool.
func (an *Analyzer) AnalyzeFault(f interp.Fault) (*FaultAnalysis, error) {
	ix, err := an.Index()
	if err != nil {
		return nil, err
	}
	m, err := an.App.NewMachine()
	if err != nil {
		return nil, err
	}
	m.Mode = interp.TraceFull
	// The faulty trace matches the clean one until the fault (and usually
	// after), so the clean record count plus a little headroom avoids
	// append growth entirely.
	m.TraceHint = uint64(ix.clean.Recs.Len()) + 64
	m.Fault = &f
	faulty, err := m.Run()
	if err != nil {
		return nil, err
	}
	return ix.AnalyzeTrace(f, faulty, campaign.Classify(faulty.Status, m.FaultApplied, func() bool { return an.App.Verify(faulty) })), nil
}

// PatternRates counts the §VII-B pattern rates from the clean trace.
func (an *Analyzer) PatternRates() (patterns.Rates, error) {
	clean, err := an.CleanTrace()
	if err != nil {
		return patterns.Rates{}, err
	}
	return patterns.CountRates(clean), nil
}

// PopulationSize counts the fault-injection sites of a population (§IV-C),
// the input to stats.SampleSize for the paper's statistical campaign
// sizing.
func (an *Analyzer) PopulationSize(pop Population) (uint64, error) {
	_, size, err := an.resolvePopulation(pop)
	return size, err
}

// NewCampaign builds a fault-injection campaign over one of the analyzer's
// typed populations, wired to the application's machine factory and
// verifier. Options add the rest of the campaign configuration (tests,
// seed, early stopping, progress, ...). The returned campaign exposes both Run and the
// per-fault Stream.
func (an *Analyzer) NewCampaign(pop Population, opts ...inject.Option) (*inject.Campaign, error) {
	picker, _, err := an.resolvePopulation(pop)
	if err != nil {
		return nil, err
	}
	// The app name labels any durable journal (campaign.WithJournal), so a
	// journal recorded for one benchmark refuses to resume another; later
	// options may still override it.
	return inject.NewCampaign(an.App.NewMachine, an.App.Verify, picker,
		append([]inject.Option{campaign.WithJournalApp(an.App.Name)}, opts...)...)
}

// Campaign measures a population's success rate (Equation 1): it builds the
// campaign with NewCampaign and runs it under ctx. RegionInternal and
// RegionInputs give the §V-C per-region/per-iteration rates, WholeProgram
// the Table IV application-level rate, and Hybrid the Table III mixed
// population.
func (an *Analyzer) Campaign(ctx context.Context, pop Population, opts ...inject.Option) (inject.Result, error) {
	c, err := an.NewCampaign(pop, opts...)
	if err != nil {
		return inject.Result{}, err
	}
	return c.Run(ctx)
}
