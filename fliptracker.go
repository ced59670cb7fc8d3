// Package fliptracker is the public API of the FlipTracker reproduction —
// a framework for understanding natural error resilience in HPC
// applications (Guo, Li, Laguna, Schulz; SC 2018).
//
// FlipTracker executes an application on an instruction-level interpreter,
// records dynamic traces, models the application as a chain of
// loop-delineated code regions, and tracks how injected single-bit faults
// propagate: per-region dynamic data dependence graphs (DDDG) identify each
// region's inputs and outputs, and an alive-corrupted-locations (ACL) table
// shows, instruction by instruction, how many corrupted locations are still
// live. From these two views the framework extracts the six resilience
// computation patterns the paper defines: dead corrupted locations,
// repeated additions, conditional statements, shifting, truncation, and
// data overwriting.
//
// Basic use:
//
//	an, err := fliptracker.NewAnalyzer("cg")
//	fa, err := an.AnalyzeFault(fliptracker.Fault{Step: 12345, Bit: 40})
//	for _, rr := range fa.Regions {
//	    fmt.Println(rr.Region.Name, rr.Patterns.Evidence)
//	}
//
// Fault-injection campaigns target a typed Population and are configured by
// functional options; Run aggregates, Stream yields per-fault outcomes in
// deterministic order, and both honor context cancellation:
//
//	res, err := an.Campaign(ctx, fliptracker.RegionInternal("cg_b", 0),
//	    fliptracker.WithTests(1067), fliptracker.WithSeed(1),
//	    fliptracker.WithEarlyStop(0.95, 0.03))
//	fmt.Println(res.SuccessRate())
//
//	c, err := an.NewCampaign(fliptracker.WholeProgram(), fliptracker.WithTests(500))
//	for fo, err := range c.Stream(ctx) {
//	    fmt.Println(fo.Index, fo.Fault, fo.Outcome)
//	}
//
// Analyzed campaigns run the full fine-grained analysis (ACL table, DDDG
// comparison, pattern detection) on every injection inside the campaign
// worker pool, sharing one clean-run index (CleanIndex) across all faults:
//
//	for fa, err := range an.StreamAnalysis(ctx, fliptracker.RegionInternal("cg_b", 0),
//	    fliptracker.WithTests(200), fliptracker.WithParallelism(8)) {
//	    fmt.Println(fa.Fault, fa.Outcome, fa.PatternsFound())
//	}
//
// Multi-rank (MPI) campaigns replay a recorded fault-free world with each
// fault injected into a single rank, classify the world-level outcome and
// how far corruption spread across ranks, and run the per-rank analysis
// against one CleanIndex per rank. They take the same options:
//
//	ma, err := fliptracker.NewMPIAnalyzer("mg", 4)
//	for wa, err := range ma.StreamWorldAnalysis(ctx, nil,
//	    fliptracker.WithTests(100), fliptracker.WithParallelism(4)) {
//	    fmt.Println(wa.Fault, wa.Outcome, wa.Propagation)
//	}
//
// The ten workloads of the paper's evaluation (NPB CG, MG, IS, LU, BT, SP,
// DC, FT; LULESH; Rodinia KMEANS) ship with the library; Apps lists them.
package fliptracker

import (
	"context"

	"fliptracker/internal/acl"
	"fliptracker/internal/apps"
	"fliptracker/internal/campaign"
	"fliptracker/internal/coord"
	"fliptracker/internal/core"
	"fliptracker/internal/dddg"
	"fliptracker/internal/inject"
	"fliptracker/internal/interp"
	"fliptracker/internal/ir"
	"fliptracker/internal/irstatic"
	"fliptracker/internal/journal"
	"fliptracker/internal/mpi"
	"fliptracker/internal/patterns"
	"fliptracker/internal/predict"
	"fliptracker/internal/stats"
	"fliptracker/internal/trace"
)

// Core pipeline.
type (
	// Analyzer drives the FlipTracker pipeline for one application.
	Analyzer = core.Analyzer
	// CleanIndex is the analyzer's shared index over the fault-free trace:
	// region spans split once, clean DDDGs and input locations built
	// lazily and cached, reused by every per-fault analysis. Get it with
	// Analyzer.Index.
	CleanIndex = core.CleanIndex
	// FaultAnalysis is the fine-grained analysis of one faulty run.
	FaultAnalysis = core.FaultAnalysis
	// RegionReport is the per-region view of a fault analysis.
	RegionReport = core.RegionReport
)

// Fault injection.
type (
	// Fault is one single-bit flip (step, bit, target kind).
	Fault = interp.Fault
	// FaultKind selects register/memory/instruction-result targets.
	FaultKind = interp.FaultKind
	// Campaign is one configured fault-injection campaign, built with
	// NewCampaign (or Analyzer.NewCampaign for a typed Population) and
	// executed with Run(ctx) or consumed per fault with Stream(ctx).
	Campaign = inject.Campaign
	// CampaignOption configures a Campaign or an MPICampaign: the shared
	// options (WithTests, WithSeed, ...) configure both, WithAnalysis only a
	// Campaign, MPIWithVerify and MPIWithWorldAnalysis only an MPICampaign.
	// An option of the other kind makes the constructor fail.
	CampaignOption = campaign.Option
	// CampaignResult aggregates campaign outcomes.
	CampaignResult = inject.Result
	// FaultOutcome is one per-fault record of Campaign.Stream: the drawn
	// fault, its outcome, and its index in the deterministic fault stream.
	FaultOutcome = inject.FaultOutcome
	// TargetPicker draws faults from an injection-site population.
	TargetPicker = inject.TargetPicker
	// FaultList is a TargetPicker replaying a fixed fault sequence, for
	// running hand-constructed fault sets through the campaign engine.
	FaultList = inject.FaultList
	// TraceAnalyzer is the per-fault hook of an analyzed campaign
	// (WithAnalysis): it receives each injection's full faulty trace on
	// the worker that ran it.
	TraceAnalyzer = inject.TraceAnalyzer
	// Population selects an Analyzer campaign's injection-site population
	// (WholeProgram, RegionInternal, RegionInputs, Hybrid).
	Population = core.Population
	// Outcome is one fault manifestation (§II-A).
	Outcome = inject.Outcome
	// MachineSnapshot is a deep copy of a paused machine's resumable state.
	MachineSnapshot = interp.Snapshot
)

// Fault target kinds.
const (
	FaultDst = interp.FaultDst
	FaultMem = interp.FaultMem
	FaultReg = interp.FaultReg
)

// TraceMode selects how much a run records.
type TraceMode = interp.TraceMode

// Trace collection modes.
const (
	TraceOff     = interp.TraceOff
	TraceMarkers = interp.TraceMarkers
	TraceFull    = interp.TraceFull
)

// Fault manifestations.
const (
	Success    = inject.Success
	Failed     = inject.Failed
	Crashed    = inject.Crashed
	NotApplied = inject.NotApplied
)

// Analysis artifacts.
type (
	// Trace is a dynamic instruction trace.
	Trace = trace.Trace
	// Span is one code-region instance within a trace.
	Span = trace.Span
	// Loc is a dynamic data location (register, memory word, output).
	Loc = trace.Loc
	// DDDG is a dynamic data dependence graph.
	DDDG = dddg.Graph
	// RegionComparison classifies §III-D fault-tolerance cases.
	RegionComparison = dddg.RegionComparison
	// ACLResult is the alive-corrupted-locations analysis.
	ACLResult = acl.Result
	// Pattern is one of the six resilience computation patterns.
	Pattern = patterns.Pattern
	// PatternDetection reports the patterns found in a region instance.
	PatternDetection = patterns.Detection
	// PatternRates are the normalized pattern-instance counts (§VII-B).
	PatternRates = patterns.Rates
)

// The six resilience computation patterns (§VI).
const (
	DCL              = patterns.DCL
	RepeatedAddition = patterns.RepeatedAddition
	Conditional      = patterns.Conditional
	Shifting         = patterns.Shifting
	Truncation       = patterns.Truncation
	Overwriting      = patterns.Overwriting

	// NumPatterns is the number of defined patterns — the length of
	// FaultAnalysis.PatternsFound and PatternDetection.Found.
	NumPatterns = patterns.NumPatterns
)

// MPI campaigns (multi-rank worlds; §IV-A per-process tracing, §V-B
// record-and-replay).
type (
	// MPIConfig configures one SPMD world run (ranks, per-rank seed, the
	// injected rank, extra host binds).
	MPIConfig = mpi.Config
	// MPIResult is one completed world: per-rank traces plus the
	// wildcard-receive Recording.
	MPIResult = mpi.Result
	// MPIRecording captures wildcard-receive arrival order for replay.
	MPIRecording = mpi.Recording
	// MPICampaign is a multi-rank fault-injection campaign: the MPI analog
	// of Campaign, with a full replayed world as the unit of work. Build it
	// with NewMPICampaign (or MPIAnalyzer.NewCampaign /
	// NewAnalyzedCampaign) and execute with Run(ctx) or Stream(ctx).
	MPICampaign = mpi.Campaign
	// MPIOption is CampaignOption, the option type of both campaign kinds.
	MPIOption = CampaignOption
	// WorldOutcome is one per-fault record of MPICampaign.Stream: the drawn
	// fault, the world-level §II-A outcome, and the cross-rank Propagation.
	WorldOutcome = mpi.WorldOutcome
	// WorldAnalyzer is the per-fault analysis hook of an analyzed MPI
	// campaign (MPIWithWorldAnalysis).
	WorldAnalyzer = mpi.WorldAnalyzer
	// Propagation classifies how far a single-rank fault spread through the
	// world: Contained, Propagated(ranks), or WorldCrash.
	Propagation = mpi.Propagation
	// PropagationClass is the coarse class of a Propagation.
	PropagationClass = mpi.PropagationClass
	// MPIAnalyzer drives the per-rank pipeline for the SPMD variant of one
	// application: one CleanIndex per rank over a recorded fault-free
	// world, shared by AnalyzeWorld and analyzed MPI campaigns.
	MPIAnalyzer = core.MPIAnalyzer
	// WorldAnalysis is the fine-grained analysis of one faulty world:
	// world outcome, propagation, and one FaultAnalysis per rank.
	WorldAnalysis = core.WorldAnalysis
	// WorldSnapshot is a deep copy of a whole world at a consistent cut
	// (a collective boundary): every rank machine plus in-flight network
	// state. Taken by SnapshotWorld, resumed by RestoreWorld — the
	// substrate of checkpointed MPI campaigns.
	WorldSnapshot = mpi.WorldSnapshot
)

// Cross-rank propagation classes.
const (
	PropagationContained  = mpi.Contained
	PropagationPropagated = mpi.Propagated
	PropagationWorldCrash = mpi.WorldCrash
)

// Prediction (Use Case 2, §VII-B).
type (
	// PredictSample is one program's pattern rates and measured success rate.
	PredictSample = predict.Sample
	// PredictModel is the fitted Bayesian linear regression.
	PredictModel = predict.Model
	// LOOResult is one leave-one-out validation row (Table IV).
	LOOResult = predict.LOOResult
)

// Workloads.
type (
	// App is one registered benchmark.
	App = apps.App
	// Program is a sealed IR module.
	Program = ir.Program
	// Machine executes one sealed program; it can pause at any dynamic
	// step (RunUntil), be snapshotted, and resume from a restored state.
	Machine = interp.Machine
)

// NewAnalyzer builds the pipeline for a registered application ("cg", "mg",
// "is", "lu", "bt", "sp", "dc", "ft", "kmeans", "lulesh", plus the hardened
// CG variants of Use Case 1).
func NewAnalyzer(appName string) (*Analyzer, error) { return core.NewAnalyzer(appName) }

// Apps returns the names of every registered workload.
func Apps() []string { return apps.Names() }

// GetApp returns a registered workload.
func GetApp(name string) (*App, bool) { return apps.Get(name) }

// NewCampaign builds a fault-injection campaign from a machine factory, a
// verifier and a target population, configured by functional options. For
// campaigns over a registered workload's standard populations, prefer
// Analyzer.NewCampaign with a typed Population.
func NewCampaign(mk func() (*Machine, error), verify func(*Trace) bool, targets TargetPicker, opts ...CampaignOption) (*Campaign, error) {
	return inject.NewCampaign(mk, verify, targets, opts...)
}

// WithTests sets the number of injections, or of injected worlds (the cap,
// under early stopping).
func WithTests(n int) CampaignOption { return campaign.WithTests(n) }

// WithSeed seeds the pre-drawn fault stream; for a fixed seed the outcomes
// are identical whatever the parallelism.
func WithSeed(seed int64) CampaignOption { return campaign.WithSeed(seed) }

// WithParallelism caps concurrently running injections (machines or
// worlds); 0 means GOMAXPROCS.
func WithParallelism(n int) CampaignOption { return campaign.WithParallelism(n) }

// WithProgress registers a per-injection progress callback.
func WithProgress(fn func(done, total int)) CampaignOption { return campaign.WithProgress(fn) }

// WithEarlyStop enables sequential early stopping: the campaign ends once
// the success rate's Agresti–Coull confidence interval is within margin,
// never before a minimum of 48 outcomes, instead of always running the
// full test count. The rule reads the outcome stream in fault-index order,
// so for a fixed seed it stops at the same index whatever the parallelism.
func WithEarlyStop(confidence, margin float64) CampaignOption {
	return campaign.WithEarlyStop(confidence, margin)
}

// WithAnalysis turns a campaign into an analyzed campaign: every injection
// runs fully traced and its faulty trace is handed to analyze inside the
// worker pool; the payload arrives on FaultOutcome.Analysis. clean must be
// the program's fault-free full trace. For campaigns over an Analyzer's
// typed populations, prefer Analyzer.NewAnalyzedCampaign / StreamAnalysis /
// AnalyzedCampaign, which wire the analyzer's CleanIndex in automatically;
// for custom TargetPickers, combine NewCampaign with
// CleanIndex.AnalysisOption.
func WithAnalysis(clean *Trace, analyze TraceAnalyzer) CampaignOption {
	return inject.WithAnalysis(clean, analyze)
}

// WithDropTraces makes an analyzed campaign drop each injection's faulty
// traces as soon as its analysis hook returns (the payload's DropTrace
// method), so collected results hold only summary artifacts — the knob for
// memory-bounded analyzed sweeps. Requires an analyzed campaign.
func WithDropTraces() CampaignOption { return campaign.WithDropTraces() }

// WithJournal makes the campaign durable: every outcome — with its
// propagation classification, for a world — is appended, in fault-index
// order, to an append-only checksummed journal at path and fsync'd before
// the next outcome is delivered, and Run/Stream on an existing journal
// resume it — validating the header against this campaign
// (ErrJournalMismatch on a different seed, test count or population),
// replaying the committed outcomes from disk, truncating any torn or
// bit-flipped tail to the last committed record, and executing only the
// remaining faults. A killed campaign resumed this way produces a Result
// byte-identical to an uninterrupted run. Parallelism may differ between
// the original run and the resume.
func WithJournal(path string) CampaignOption { return campaign.WithJournal(path) }

// WithJournalApp labels a campaign journal's header with the application
// name, so a journal recorded for one app refuses to resume under another.
func WithJournalApp(app string) CampaignOption { return campaign.WithJournalApp(app) }

// NewMPIAnalyzer builds the per-rank pipeline for a registered application's
// SPMD variant at the given world size: the fault-free world is recorded
// once under full tracing and each rank's clean trace is indexed. Set
// MPIAnalyzer.FaultRank to choose the injected rank (default 0).
func NewMPIAnalyzer(appName string, ranks int) (*MPIAnalyzer, error) {
	return core.NewMPIAnalyzer(appName, ranks)
}

// NewMPICampaign builds a multi-rank fault-injection campaign from a sealed
// SPMD program, a base world configuration and a target population. Each
// injection replays the recorded fault-free world with one fault injected
// into base.FaultRank. For campaigns over a registered workload, prefer
// MPIAnalyzer.NewCampaign / NewAnalyzedCampaign, which wire the clean world,
// the verifier and the per-rank analysis automatically.
func NewMPICampaign(p *Program, base MPIConfig, targets TargetPicker, opts ...MPIOption) (*MPICampaign, error) {
	return mpi.NewCampaign(p, base, targets, opts...)
}

// RunWorld executes a sealed SPMD program once across cfg.Ranks simulated
// ranks, returning per-rank traces and the wildcard-receive recording.
func RunWorld(p *Program, cfg MPIConfig) (*MPIResult, error) { return mpi.Run(p, cfg) }

// SnapshotWorld replays a recorded fault-free world in one forward pass,
// pausing every rank at the selected collective boundaries (ascending
// indices into clean.Cuts) and deep-copying the complete world state at
// each — all rank machines plus undelivered messages and replay cursors.
func SnapshotWorld(ctx context.Context, p *Program, cfg MPIConfig, clean *MPIResult, rounds []int) ([]*WorldSnapshot, error) {
	return mpi.SnapshotWorld(ctx, p, cfg, clean, rounds)
}

// RestoreWorld resumes a snapshotted world to completion — with cfg.Fault
// injected into cfg.FaultRank when set — with per-rank outputs, step counts,
// statuses and the §II-A/propagation classification identical to a
// from-step-0 replay of the same configuration. Traced restores (cfg.Mode TraceFull)
// record only the post-cut suffix; full stitched traces are what analyzed
// MPI campaigns produce (MPIAnalyzer.NewAnalyzedCampaign), which prime each
// rank's clean prefix before resuming.
func RestoreWorld(p *Program, cfg MPIConfig, snap *WorldSnapshot) (*MPIResult, error) {
	return mpi.RestoreWorld(p, cfg, snap, nil)
}

// ClassifyPropagation diffs each non-injected rank of a faulty world against
// the clean world and classifies the spread (Contained / Propagated(ranks) /
// WorldCrash).
func ClassifyPropagation(clean, faulty *MPIResult, faultRank int) Propagation {
	return mpi.ClassifyPropagation(clean, faulty, faultRank)
}

// MPIWithVerify replaces the campaign's world verifier.
func MPIWithVerify(verify func(faulty *MPIResult) bool) MPIOption { return mpi.WithVerify(verify) }

// MPIWithWorldAnalysis turns an MPI campaign into an analyzed campaign.
func MPIWithWorldAnalysis(analyze WorldAnalyzer) MPIOption { return mpi.WithWorldAnalysis(analyze) }

// Durable-journal failure classes (see WithJournal), for
// errors.Is against Run/Stream errors.
var (
	// ErrJournalMismatch: the journal belongs to a different campaign
	// (engine, app, seed, test count, or population fingerprint).
	ErrJournalMismatch = journal.ErrMismatch
	// ErrJournalCorruptHeader: the journal header itself is damaged, or
	// the file is not a campaign journal.
	ErrJournalCorruptHeader = journal.ErrCorruptHeader
	// ErrJournalCorrupt: a record passed its checksum but is internally
	// inconsistent — a state no torn write can produce.
	ErrJournalCorrupt = journal.ErrCorrupt
)

// Static IR dependence analysis (the static counterpart of the dynamic
// DDDG): a sound whole-program over-approximation of whether a corrupted
// value can reach any program output, store, or branch condition.
type (
	// StaticAnalysis is the whole-program static dependence analysis of a
	// sealed program: per-site fault classification (Live / Benign /
	// NeverFires), per-function site statistics and an annotated
	// disassembly. Build it with AnalyzeProgram or get the cached one from
	// Analyzer.StaticAnalysis.
	StaticAnalysis = irstatic.Analysis
	// StaticPruner maps dynamic fault sites (step, target) to static
	// classes through a clean run's step-indexed instruction log. Get one
	// from Analyzer.StaticPruner / MPIAnalyzer.StaticPruner and pass it to
	// WithStaticPrune.
	StaticPruner = irstatic.Pruner
	// StaticClass is a static fault-site classification.
	StaticClass = irstatic.Class
	// StaticSiteStats counts one function's static instruction-site
	// classes (StaticAnalysis.Stats).
	StaticSiteStats = irstatic.SiteStats
	// StaticPruneStats counts how a concrete fault list classifies
	// (StaticPruner.StatsFor); Rate() is the fraction skippable.
	StaticPruneStats = irstatic.PruneStats
)

// Static fault-site classes.
const (
	// StaticLive: corruption may reach an output, store, branch condition
	// or crash — the fault must run.
	StaticLive = irstatic.Live
	// StaticBenign: the fault fires but the corrupted value provably
	// cannot reach any output, store, or branch — the outcome is Success
	// without running.
	StaticBenign = irstatic.Benign
	// StaticNeverFires: the fault site cannot latch a flip at all — the
	// outcome is NotApplied without running.
	StaticNeverFires = irstatic.NeverFires
)

// AnalyzeProgram runs the whole-program static dependence analysis over a
// sealed program. For registered workloads prefer Analyzer.StaticAnalysis,
// which caches the result.
func AnalyzeProgram(p *Program) (*StaticAnalysis, error) { return irstatic.Analyze(p) }

// NewStaticPruner pairs a static analysis with a clean run's step-indexed
// instruction log (Machine.RecordSIDs + Machine.SIDLog). For registered
// workloads prefer Analyzer.StaticPruner / MPIAnalyzer.StaticPruner, which
// run the clean replay and verify it for you.
func NewStaticPruner(an *StaticAnalysis, sids []int32) (*StaticPruner, error) {
	return irstatic.NewPruner(an, sids)
}

// WithStaticPrune skips statically provable faults in a campaign: Benign
// sites record Success and NeverFires sites record NotApplied — with a
// Contained propagation, for a world — without running. Result-invariant —
// the campaign Result is byte-identical to an unpruned run of the same seed
// — and therefore excluded from journal fingerprints. Incompatible with
// analysis (pruned runs produce no trace to analyze).
func WithStaticPrune(p *StaticPruner) CampaignOption { return campaign.WithStaticPrune(p) }

// CrossCheckStaticOutcome asserts the static analysis's soundness contract
// against one dynamically observed outcome: statically Benign must have
// classified Success, statically NeverFires must have classified
// NotApplied. A non-nil error means an internal error in the static
// analysis or the interpreter, never in the application.
func CrossCheckStaticOutcome(p *StaticPruner, f Fault, o Outcome) error {
	return core.CrossCheckOutcome(p, f, o)
}

// WholeProgram targets uniform dynamic instructions across the full run
// (the Table IV population).
func WholeProgram() Population { return core.WholeProgram() }

// RegionInternal targets the internal locations of one code-region
// instance (§V-C).
func RegionInternal(region string, instance int) Population {
	return core.RegionInternal(region, instance)
}

// RegionInputs targets a region instance's memory input locations at
// region entry (§III-B).
func RegionInputs(region string, instance int) Population {
	return core.RegionInputs(region, instance)
}

// Hybrid targets a mixed instruction-result/memory-word population (the
// Table III use case).
func Hybrid() Population { return core.Hybrid() }

// RestoreMachine builds a new machine positioned at a snapshot taken from a
// paused run of the same sealed program (Machine.RunUntil + Snapshot). Host
// functions must be rebound before resuming.
func RestoreMachine(p *Program, s *MachineSnapshot) (*Machine, error) {
	return interp.RestoreMachine(p, s)
}

// UniformDstPicker targets the result of a uniformly chosen dynamic
// instruction across a run of the given length — the standard whole-program
// population (§IV-C).
func UniformDstPicker(totalSteps uint64) inject.TargetPicker {
	return inject.UniformDst{TotalSteps: totalSteps}
}

// AnalyzeACL builds the ACL table for a faulty trace against its matching
// fault-free trace.
func AnalyzeACL(faulty, clean *Trace) *ACLResult { return acl.Analyze(faulty, clean) }

// ReadTraceFile loads a binary trace written by Trace.WriteBinaryFile, the
// `fliptracker trace` CLI or MPIResult.WriteRankTraces, all in the columnar
// FTRC2 format. A file in any other format, the retired FTRC1 included,
// fails with "trace: bad magic".
func ReadTraceFile(path string) (*Trace, error) { return trace.ReadBinaryFile(path) }

// BuildDDDG builds the dynamic data dependence graph of one region-instance
// span.
func BuildDDDG(t *Trace, s Span) *DDDG { return dddg.Build(t, s) }

// DetectPatterns runs the six pattern detectors over one region instance.
func DetectPatterns(prog *Program, faulty, clean *Trace, s Span, res *ACLResult) *PatternDetection {
	return patterns.Detect(prog, faulty, clean, s, res)
}

// CountPatternRates counts pattern rates over a fault-free trace.
func CountPatternRates(t *Trace) PatternRates { return patterns.CountRates(t) }

// FitPredictor fits the §VII-B success-rate regression.
func FitPredictor(samples []PredictSample) (*PredictModel, error) {
	return predict.Fit(samples, predict.DefaultLambda)
}

// LeaveOneOut runs the Table IV leave-one-out validation.
func LeaveOneOut(samples []PredictSample) ([]LOOResult, error) {
	return predict.LeaveOneOut(samples, predict.DefaultLambda)
}

// SampleSize computes the number of injection tests for a population at a
// confidence level and margin of error (Leveugle et al.; the paper uses
// 95%/3% and 99%/1%).
func SampleSize(population uint64, confidence, margin float64) int {
	return stats.SampleSize(population, confidence, margin)
}

// Shard coordinator (internal/coord): split one campaign's fault-index
// space into contiguous shards, run them on parallel workers, and merge the
// ordered per-shard streams back into the single deterministic
// fault-index-ordered stream — for a fixed seed, byte-identical to the
// campaign's own Run/Stream at any shard count. With CoordWithJournal the
// merged stream is durable under the campaign's own journal identity, so a
// killed sharded campaign resumes from its last committed outcome (by
// coordinator or plain engine alike).
type (
	// CoordShard is one contiguous window [First, Last) of a campaign's
	// fault-index space.
	CoordShard = coord.Shard
	// CoordOption configures a coordinator (CoordWithShards,
	// CoordWithWorkers, CoordWithJournal, CoordWithProgress).
	CoordOption = coord.Option
	// InjectCoordinator shards a single-process campaign.
	InjectCoordinator = coord.Coordinator[inject.FaultOutcome]
	// MPICoordinator shards a multi-rank campaign.
	MPICoordinator = coord.Coordinator[mpi.WorldOutcome]
	// CoordRunner is the engine-erased coordinator view (identity,
	// aggregate Run, merged stream in journal representation) consumers
	// that multiplex engines hold — the campaign service does.
	CoordRunner = coord.Runner
)

// PlanShards splits the index space [0, tests) into at most shards
// contiguous, non-empty, near-equal windows; their concatenation always
// reproduces [0, tests) exactly.
func PlanShards(tests, shards int) []CoordShard { return coord.Plan(tests, shards) }

// NewCoordinator builds a shard coordinator over a single-process campaign.
// The campaign must be unjournaled (use CoordWithJournal — the coordinator
// journals the merged stream) and must draw at least one fault.
func NewCoordinator(c *Campaign, opts ...CoordOption) (*InjectCoordinator, error) {
	h, err := coord.Inject(c)
	if err != nil {
		return nil, err
	}
	return coord.New(h, opts...)
}

// NewMPICoordinator builds a shard coordinator over a multi-rank campaign,
// under the same constraints as NewCoordinator.
func NewMPICoordinator(c *MPICampaign, opts ...CoordOption) (*MPICoordinator, error) {
	h, err := coord.MPI(c)
	if err != nil {
		return nil, err
	}
	return coord.New(h, opts...)
}

// CoordWithShards sets how many contiguous windows the fault-index space is
// split into; the default is a single window. Result-invariant.
func CoordWithShards(n int) CoordOption { return coord.WithShards(n) }

// CoordWithWorkers sets how many shard workers run concurrently; the
// default runs every shard at once.
func CoordWithWorkers(n int) CoordOption { return coord.WithWorkers(n) }

// CoordWithJournal commits the merged stream to a durable journal under the
// campaign's own identity before each outcome is delivered; resuming
// replays the committed prefix and shards only the remainder.
func CoordWithJournal(path string) CoordOption { return coord.WithJournal(path) }

// CoordWithProgress registers a sequential progress callback over the
// merged stream (including any journal-replayed prefix).
func CoordWithProgress(fn func(done, total int)) CoordOption { return coord.WithProgress(fn) }
