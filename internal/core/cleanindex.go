package core

import (
	"context"
	"fmt"
	"iter"
	"slices"
	"sync"

	"fliptracker/internal/acl"
	"fliptracker/internal/dddg"
	"fliptracker/internal/inject"
	"fliptracker/internal/interp"
	"fliptracker/internal/ir"
	"fliptracker/internal/patterns"
	"fliptracker/internal/trace"
)

// CleanIndex is the once-per-analyzer immutable index over the fault-free
// trace that every per-fault analysis shares: the region spans (split once),
// a (regionID, instance) lookup, lazily-built-then-cached clean DDDGs, and
// per-instance input locations. Before it existed, AnalyzeFault re-derived
// all of these on every injection — re-splitting the clean trace and
// rebuilding each touched instance's clean graph per fault; with the index,
// the per-fault path only pays for the faulty run and its faulty-side
// artifacts, so analyzed campaigns scale sublinearly in faults.
//
// The index runs nothing: the engines and analyzers record and classify
// each faulty run and hand it to AnalyzeTrace. Analyzer.Index builds the
// index of a registered application, and MPIAnalyzer one per rank. A
// CleanIndex is safe for concurrent use; the DDDG and input-location caches
// are what let analyzed campaigns run the full analysis inside parallel
// worker pools without redoing clean-side work per worker. Each clean span
// has one slot, built at most once, so the cache is bounded by the clean
// trace the index already holds (about two DDDG nodes per clean record).
type CleanIndex struct {
	prog  *ir.Program
	clean *trace.Trace
	spans *trace.SpanIndex
	// slots holds one lazily built slot per clean span. The map is
	// immutable after construction, so lookups take no lock.
	slots map[spanKey]*graphSlot
}

type spanKey struct {
	region   int32
	instance int
}

// graphSlot is one clean span's DDDG and input locations, built together
// the first time either is asked for.
type graphSlot struct {
	once   sync.Once
	graph  *dddg.Graph
	inputs []trace.Loc
}

// NewTraceIndex builds the CleanIndex of prog's fault-free full trace
// clean: a single-process clean run (Analyzer.Index) or one rank of a clean
// world (MPIAnalyzer).
func NewTraceIndex(prog *ir.Program, clean *trace.Trace) *CleanIndex {
	ix := &CleanIndex{prog: prog, clean: clean, spans: trace.NewSpanIndex(clean)}
	ix.slots = make(map[spanKey]*graphSlot, len(ix.spans.Spans()))
	for _, s := range ix.spans.Spans() {
		ix.slots[spanKey{s.RegionID, s.Instance}] = new(graphSlot)
	}
	return ix
}

// Index returns the analyzer's clean-run index, building it (and the clean
// trace) on first use. Every per-fault entry point — AnalyzeFault, analyzed
// campaigns, region lookups — shares this one index.
func (an *Analyzer) Index() (*CleanIndex, error) {
	an.indexOnce.Do(func() {
		clean, err := an.CleanTrace()
		if err != nil {
			an.indexErr = err
			return
		}
		an.index = NewTraceIndex(an.Prog, clean)
	})
	return an.index, an.indexErr
}

// Clean returns the indexed fault-free trace.
func (ix *CleanIndex) Clean() *trace.Trace { return ix.clean }

// Spans returns every clean region-instance span in trace order. Callers
// must not mutate the returned slice.
func (ix *CleanIndex) Spans() []trace.Span { return ix.spans.Spans() }

// Instances returns the clean spans of one region in instance order.
// Callers must not mutate the returned slice.
func (ix *CleanIndex) Instances(regionID int32) []trace.Span { return ix.spans.Instances(regionID) }

// Instance returns clean span number n of the given region.
func (ix *CleanIndex) Instance(regionID int32, n int) (trace.Span, bool) {
	return ix.spans.Instance(regionID, n)
}

// Graph returns the DDDG of a clean region-instance span, building it on
// first use and keeping it for every later fault that touches the same
// instance. The graph is shared: treat it as read-only.
func (ix *CleanIndex) Graph(s trace.Span) *dddg.Graph { return ix.slot(s).graph }

// InputLocs returns the memory input locations of a clean region instance
// (read-before-written in its span), kept alongside its Graph. Callers must
// not mutate the returned slice.
func (ix *CleanIndex) InputLocs(s trace.Span) []trace.Loc { return ix.slot(s).inputs }

// slot returns the built slot of clean span s. A span the index does not
// hold gets a fresh, unkept slot.
func (ix *CleanIndex) slot(s trace.Span) *graphSlot {
	sl, ok := ix.slots[spanKey{s.RegionID, s.Instance}]
	if !ok {
		sl = new(graphSlot)
	}
	sl.once.Do(func() {
		sl.graph = dddg.Build(ix.clean, s)
		sl.inputs = sl.graph.InputMemLocs()
	})
	return sl
}

// AnalyzeTrace runs the full fine-grained analysis of one recorded faulty
// run against the index (Figure 1 steps (c)-(d)): ACL table,
// per-touched-region DDDG comparison, and pattern detection. The trace must
// be a TraceFull record of a run of this index's program with exactly the
// fault f injected, and outcome is that run's §II-A classification
// (campaign.Classify), which becomes the analysis' Outcome as is.
// Analyzer.AnalyzeFault records and classifies one run itself; analyzed
// campaigns collect the trace inside the injection worker pool (sharing
// checkpointed prefixes) and hand it here with the outcome they count.
func (ix *CleanIndex) AnalyzeTrace(f interp.Fault, faulty *trace.Trace, outcome inject.Outcome) *FaultAnalysis {
	fa := &FaultAnalysis{Fault: f, Faulty: faulty, Outcome: outcome}
	fa.ACL = acl.Analyze(faulty, ix.clean)

	// Identify region instances whose span overlaps any corruption
	// interval and analyze each. Clean-side artifacts (spans, DDDGs) come
	// from the index; only faulty-side artifacts are derived per fault.
	if fa.ACL.InjectionIndex >= 0 {
		fIdx := trace.NewSpanIndex(faulty)
		det := patterns.NewDetector(ix.prog, faulty, ix.clean, fa.ACL)
		touched := map[int32]bool{}
		for _, cs := range ix.Spans() {
			fs, ok := fIdx.Instance(cs.RegionID, cs.Instance)
			if !ok {
				continue
			}
			if !fa.ACL.TouchesSpan(fs) {
				continue
			}
			reg := ix.prog.Regions[cs.RegionID]
			rr := RegionReport{
				Region:     reg,
				Instance:   cs.Instance,
				Comparison: dddg.CompareRegionWith(ix.Graph(cs), faulty, fs),
				Patterns:   det.Detect(fs),
				ACLDrop:    fa.ACL.DropWithinSpan(fs),
			}
			fa.Regions = append(fa.Regions, rr)
			touched[cs.RegionID] = true
		}
		// Repeated additions usually amortize *across* instances of a
		// region (Table II: four mg3P invocations), which per-instance
		// detection cannot see. Re-run the detector over all instances of
		// each touched region and attribute hits to that region's first
		// report.
		for regionID := range touched { //ftlint:ok each region appends only to its own report; cross-region order has no effect
			spans := fIdx.Instances(regionID)
			if len(spans) < 2 {
				continue
			}
			for _, ra := range patterns.DetectRepeatedAdditionsInSpans(faulty, ix.clean, spans) {
				for i := range fa.Regions {
					if fa.Regions[i].Region.ID == int(regionID) {
						fa.Regions[i].Patterns.Found[patterns.RepeatedAddition] = true
						fa.Regions[i].Patterns.Evidence = append(fa.Regions[i].Patterns.Evidence,
							patterns.Evidence{
								Pattern:  patterns.RepeatedAddition,
								RecIndex: ra.LastRecIndex,
								Loc:      ra.Loc,
								Note: fmt.Sprintf("error magnitude shrank %.3g -> %.3g over %d additions (across instances)",
									ra.FirstMag, ra.LastMag, ra.Writes),
							})
						break
					}
				}
			}
		}
	}
	return fa
}

// AnalysisOption returns the campaign option that wires this index's
// per-fault analysis into an inject.Campaign: every injection runs traced
// and its FaultOutcome.Analysis carries a *FaultAnalysis whose Outcome is
// the campaign's own classification (so analyzed and plain campaigns agree,
// including on NotApplied). Used by Analyzer.NewAnalyzedCampaign; exposed
// for campaigns over custom TargetPickers (e.g. an inject.FaultList of
// hand-picked faults).
func (ix *CleanIndex) AnalysisOption() inject.Option {
	return inject.WithAnalysis(ix.clean, func(_ int, f interp.Fault, faulty *trace.Trace, outcome inject.Outcome) (any, error) {
		return ix.AnalyzeTrace(f, faulty, outcome), nil
	})
}

// NewAnalyzedCampaign builds an analyzed campaign over a typed population:
// the same checkpointing, worker pool, deterministic fault-index order, early
// stopping and cancellation as NewCampaign, but every injection runs fully
// traced and yields a *FaultAnalysis on FaultOutcome.Analysis. Per-fault
// analyses execute inside the worker pool, so WithParallelism(N) parallelizes
// the analysis as well as the injections.
func (an *Analyzer) NewAnalyzedCampaign(pop Population, opts ...inject.Option) (*inject.Campaign, error) {
	ix, err := an.Index()
	if err != nil {
		return nil, err
	}
	// The analysis option goes last so a stray WithAnalysis among opts
	// cannot replace the index's hook (StreamAnalysis depends on the
	// payload type).
	return an.NewCampaign(pop, slices.Concat(opts, []inject.Option{ix.AnalysisOption()})...)
}

// StreamAnalysis runs an analyzed campaign and yields one *FaultAnalysis
// per injection in fault-index order (deterministic for a fixed seed,
// whatever the parallelism). Breaking out of the loop stops
// the workers promptly; on failure — including context cancellation — the
// final pair carries the error.
func (an *Analyzer) StreamAnalysis(ctx context.Context, pop Population, opts ...inject.Option) iter.Seq2[*FaultAnalysis, error] {
	return func(yield func(*FaultAnalysis, error) bool) {
		c, err := an.NewAnalyzedCampaign(pop, opts...)
		if err != nil {
			yield(nil, err)
			return
		}
		for fo, err := range c.Stream(ctx) {
			if err != nil {
				yield(nil, err)
				return
			}
			fa, ok := fo.Analysis.(*FaultAnalysis)
			if !ok {
				yield(nil, fmt.Errorf("core: analyzed campaign yielded unexpected payload %T", fo.Analysis))
				return
			}
			if !yield(fa, nil) {
				return
			}
		}
	}
}

// AnalyzedCampaign runs an analyzed campaign to completion and collects the
// per-fault analyses in fault-index order. On error (including context
// cancellation) it returns the analyses completed so far with the error.
func (an *Analyzer) AnalyzedCampaign(ctx context.Context, pop Population, opts ...inject.Option) ([]*FaultAnalysis, error) {
	var out []*FaultAnalysis
	for fa, err := range an.StreamAnalysis(ctx, pop, opts...) {
		if err != nil {
			return out, err
		}
		out = append(out, fa)
	}
	return out, nil
}
