// Root benchmark harness: one bench per table and figure of the paper
// (regenerating the artifact in quick mode and reporting its headline
// number as a metric), micro-benchmarks of the substrate, and the ablation
// benches called out in DESIGN.md §5.
//
// Regenerate everything with:
//
//	go test -bench=. -benchmem
//
// Paper-scale statistical sizing is available through cmd/ftbench -full.
package fliptracker_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"fliptracker"

	"fliptracker/internal/acl"
	"fliptracker/internal/apps"
	"fliptracker/internal/dddg"
	"fliptracker/internal/experiments"
	"fliptracker/internal/inject"
	"fliptracker/internal/interp"
	"fliptracker/internal/ir"
	"fliptracker/internal/mpi"
	"fliptracker/internal/trace"
)

func benchOptions() experiments.Options {
	o := experiments.DefaultOptions()
	o.Ranks = 4
	o.Runs = 3
	return o
}

// --- One bench per paper artifact ---

func BenchmarkFig4TracingOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.TracingOverhead(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.MeanOverhead, "overhead-%")
	}
}

func BenchmarkFig5PerRegionSuccessRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.PerRegionSuccessRates(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(r.Rows)), "regions")
	}
}

func BenchmarkFig6PerIterationSuccessRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.PerIterationSuccessRates(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(r.Rows)), "iterations")
	}
}

func BenchmarkFig7ACLSeries(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.ACLSeries(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.Peak), "peak-ACL")
	}
}

func BenchmarkTable1PatternInventory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.PatternInventory(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		found := 0
		for _, row := range r.Rows {
			if row.AnyFound {
				found++
			}
		}
		b.ReportMetric(float64(found), "regions-with-patterns")
	}
}

func BenchmarkTable2RepeatedAdditions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RepeatedAdditionsMagnitude(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if !r.Shrinks {
			b.Fatal("error magnitude did not shrink")
		}
	}
}

func BenchmarkTable3ResilienceAwareCG(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.ResilienceAwareCG(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		base, all := r.Rows[0].SR, r.Rows[3].SR
		if base > 0 {
			b.ReportMetric(100*(all-base)/base, "resilience-gain-%")
		}
	}
}

func BenchmarkTable4Prediction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Prediction(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.RSquared, "r-squared-%")
		b.ReportMetric(100*r.MeanErrExclDC, "loo-err-%")
	}
}

// --- Substrate micro-benchmarks ---

func cleanCG(b *testing.B) (*fliptracker.Analyzer, *trace.Trace) {
	b.Helper()
	an, err := fliptracker.NewAnalyzer("cg")
	if err != nil {
		b.Fatal(err)
	}
	tr, err := an.CleanTrace()
	if err != nil {
		b.Fatal(err)
	}
	return an, tr
}

func BenchmarkInterpreterUntraced(b *testing.B) { benchInterpreter(b, interp.TraceOff) }

func BenchmarkInterpreterFullTrace(b *testing.B) { benchInterpreter(b, interp.TraceFull) }

// benchInterpreter runs each registered app's clean program from step 0 in
// the given trace mode, one sub-benchmark per app, and reports dispatch
// throughput in dynamic steps per second. Traced runs preallocate their
// record buffer from the clean step count (TraceHint), as campaigns do, so
// FullTrace measures recording rather than buffer growth.
func benchInterpreter(b *testing.B, mode interp.TraceMode) {
	for _, name := range apps.Names() {
		b.Run(name, func(b *testing.B) {
			a, _ := apps.Get(name)
			tr, err := a.CleanTrace(interp.TraceOff)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, err := a.NewMachine()
				if err != nil {
					b.Fatal(err)
				}
				m.Mode = mode
				m.TraceHint = tr.Steps
				if _, err := m.Run(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(tr.Steps)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Msteps/s")
		})
	}
}

func BenchmarkDDDGBuild(b *testing.B) {
	an, tr := cleanCG(b)
	span, err := an.RegionInstance("cg_b", 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := dddg.Build(tr, span)
		if len(g.Nodes) == 0 {
			b.Fatal("empty graph")
		}
	}
}

// midDstStep returns the dynamic step of a destination-writing instruction
// near the middle of the trace (faults on branch steps never fire).
func midDstStep(b *testing.B, tr *trace.Trace) uint64 {
	b.Helper()
	for i := tr.Recs.Len() / 2; i < tr.Recs.Len(); i++ {
		if tr.Recs.HasDst(i) {
			return tr.Recs.At(i).Step
		}
	}
	b.Fatal("no destination-writing record in second half of trace")
	return 0
}

func BenchmarkACLAnalysis(b *testing.B) {
	an, clean := cleanCG(b)
	faulty, err := an.App.FaultyTrace(interp.TraceFull,
		interp.Fault{Step: midDstStep(b, clean), Bit: 40, Kind: interp.FaultDst})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := acl.Analyze(faulty, clean)
		_ = res.Peak
	}
}

func BenchmarkFaultInjectionRun(b *testing.B) {
	an, clean := cleanCG(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := an.App.NewMachine()
		if err != nil {
			b.Fatal(err)
		}
		m.Fault = &interp.Fault{Step: clean.Steps / 2, Bit: uint8(i % 64), Kind: interp.FaultDst}
		if _, err := m.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpointedCampaign times the same campaign two ways: a
// from-scratch loop (inject.RunOne on every drawn fault, each replayed from
// step 0) and the checkpointed campaign itself. Both halves report the
// whole-campaign wall clock per injection; results are verified identical
// (TestCheckpointedCampaignMatchesRunOne pins the same check in the test
// suite). "uniform" draws faults across the whole run: checkpoints share the
// prefix and runs that reconverge with the clean run skip the tail, about
// 4-5x on a 2-vCPU VM. "late-window" clusters faults in the last tenth of
// the run, the shape of region-instance campaigns, where nearly the whole
// prefix is shared.
func BenchmarkCheckpointedCampaign(b *testing.B) {
	an, clean := cleanCG(b)
	for _, pop := range checkpointedCampaignPops(clean.Steps) {
		var scratch, checkpointed fliptracker.CampaignResult
		b.Run(pop.name+"/from-scratch", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				scratch = runOneLoop(b, an, newCheckpointedCampaign(b, an, pop.targets))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*checkpointedCampaignTests), "ns/injection")
		})
		b.Run(pop.name+"/checkpointed", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := newCheckpointedCampaign(b, an, pop.targets).Run(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				checkpointed = res
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*checkpointedCampaignTests), "ns/injection")
		})
		// Zero Tests means a -bench filter skipped that half's closure.
		if scratch.Tests != 0 && checkpointed.Tests != 0 && scratch != checkpointed {
			b.Fatalf("%s: from-scratch %+v vs checkpointed %+v", pop.name, scratch, checkpointed)
		}
	}
}

// TestCheckpointedCampaignMatchesRunOne is BenchmarkCheckpointedCampaign's
// agreement check as a test: on CG's uniform and late-window populations,
// the checkpointed campaign's Result equals the from-scratch loop's.
func TestCheckpointedCampaignMatchesRunOne(t *testing.T) {
	an, err := fliptracker.NewAnalyzer("cg")
	if err != nil {
		t.Fatal(err)
	}
	clean, err := an.CleanTrace()
	if err != nil {
		t.Fatal(err)
	}
	for _, pop := range checkpointedCampaignPops(clean.Steps) {
		c := newCheckpointedCampaign(t, an, pop.targets)
		checkpointed, err := c.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if scratch := runOneLoop(t, an, c); scratch != checkpointed {
			t.Errorf("%s: from-scratch %+v vs checkpointed %+v", pop.name, scratch, checkpointed)
		}
	}
}

const checkpointedCampaignTests = 48

// checkpointedCampaignPops are BenchmarkCheckpointedCampaign's populations
// over a run of the given length.
func checkpointedCampaignPops(steps uint64) []struct {
	name    string
	targets inject.TargetPicker
} {
	return []struct {
		name    string
		targets inject.TargetPicker
	}{
		{"uniform", inject.UniformDst{TotalSteps: steps}},
		{"late-window", inject.StepRangeDst{Lo: steps - steps/10, Hi: steps}},
	}
}

func newCheckpointedCampaign(tb testing.TB, an *fliptracker.Analyzer, targets inject.TargetPicker) *fliptracker.Campaign {
	tb.Helper()
	c, err := fliptracker.NewCampaign(an.App.NewMachine, an.App.Verify, targets,
		fliptracker.WithTests(checkpointedCampaignTests),
		fliptracker.WithSeed(20181111))
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// runOneLoop is the from-scratch oracle: inject.RunOne on each of the
// campaign's drawn faults, tallied like Run.
func runOneLoop(tb testing.TB, an *fliptracker.Analyzer, c *fliptracker.Campaign) fliptracker.CampaignResult {
	tb.Helper()
	var res fliptracker.CampaignResult
	for _, f := range c.Faults() {
		o, err := inject.RunOne(an.App.NewMachine, an.App.Verify, f)
		if err != nil {
			tb.Fatal(err)
		}
		res.Count(o)
	}
	return res
}

// BenchmarkEarlyStopCampaign compares a fixed-size campaign (Leveugle et
// al.'s worst-case sizing at 95%/3%, the paper's §V rule) against the same
// campaign with sequential early stopping (WithEarlyStop(0.95, 0.03)) on CG
// and LULESH. Both halves report wall clock per run plus the injections
// actually executed; the early-stop half also reports how far its success
// rate moved from the fixed-size estimate (must stay within the margin).
// The win scales with how far the true rate is from the worst-case p = 0.5
// the fixed sizing assumes: each app pairs its whole-program population
// (near 0.5, little to gain) with a higher-resilience one that stops far
// earlier (CG's matvec input locations at ~0.89, LULESH's hybrid
// population at ~0.70).
func BenchmarkEarlyStopCampaign(b *testing.B) {
	const margin = 0.03
	for _, tc := range []struct {
		app, name string
		pop       fliptracker.Population
	}{
		{"cg", "whole-program", fliptracker.WholeProgram()},
		{"cg", "region-inputs", fliptracker.RegionInputs("cg_b", 0)},
		{"lulesh", "whole-program", fliptracker.WholeProgram()},
		{"lulesh", "hybrid", fliptracker.Hybrid()},
	} {
		an, err := fliptracker.NewAnalyzer(tc.app)
		if err != nil {
			b.Fatal(err)
		}
		size, err := an.PopulationSize(tc.pop)
		if err != nil {
			b.Fatal(err)
		}
		tests := fliptracker.SampleSize(size, 0.95, margin)
		run := func(b *testing.B, opts ...fliptracker.CampaignOption) fliptracker.CampaignResult {
			b.Helper()
			res, err := an.Campaign(context.Background(), tc.pop,
				append([]fliptracker.CampaignOption{
					fliptracker.WithTests(tests),
					fliptracker.WithSeed(20181111),
				}, opts...)...)
			if err != nil {
				b.Fatal(err)
			}
			return res
		}
		var fixed, early fliptracker.CampaignResult
		b.Run(tc.app+"/"+tc.name+"/fixed", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fixed = run(b)
			}
			b.ReportMetric(float64(fixed.Tests), "injections")
		})
		b.Run(tc.app+"/"+tc.name+"/earlystop", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				early = run(b, fliptracker.WithEarlyStop(0.95, margin))
			}
			b.ReportMetric(float64(early.Tests), "injections")
			if fixed.Tests != 0 {
				b.ReportMetric(100*early.SuccessRate()-100*fixed.SuccessRate(), "rate-delta-pp")
			}
		})
		if fixed.Tests != 0 && early.Tests != 0 {
			// Both rates are independent estimates, each within ~margin of
			// the true rate at the configured confidence, so their
			// difference is only bounded by 2*margin — not margin itself.
			if d := early.SuccessRate() - fixed.SuccessRate(); d > 2*margin || d < -2*margin {
				b.Fatalf("%s/%s: early-stop rate %.3f vs fixed %.3f exceeds 2x margin %.2f",
					tc.app, tc.name, early.SuccessRate(), fixed.SuccessRate(), 2*margin)
			}
		}
	}
}

// legacyAnalyzeFault replicates the pre-CleanIndex per-fault analysis for
// the benchmark baseline: every clean-run artifact — the faulty trace's
// record buffer (unhinted), the clean region spans, and each touched
// instance's clean DDDG — is re-derived on every call, exactly as
// core.AnalyzeFault did before the analysis-pipeline v2 refactor.
func legacyAnalyzeFault(b *testing.B, an *fliptracker.Analyzer, clean *trace.Trace, f interp.Fault) {
	b.Helper()
	faulty, err := an.App.FaultyTrace(interp.TraceFull, f)
	if err != nil {
		b.Fatal(err)
	}
	res := acl.Analyze(faulty, clean)
	if res.InjectionIndex < 0 {
		return
	}
	cleanSpans := clean.SplitRegions()
	faultySpans := faulty.SplitRegions()
	type key struct {
		id   int32
		inst int
	}
	fIdx := make(map[key]trace.Span, len(faultySpans))
	for _, s := range faultySpans {
		fIdx[key{s.RegionID, s.Instance}] = s
	}
	for _, cs := range cleanSpans {
		fs, ok := fIdx[key{cs.RegionID, cs.Instance}]
		if !ok || !res.TouchesSpan(fs) {
			continue
		}
		dddg.CompareRegion(clean, cs, faulty, fs)
		fliptracker.DetectPatterns(an.Prog, faulty, clean, fs, res)
	}
}

// BenchmarkAnalyzedCampaign measures the analysis pipeline v2 speedup on a
// fixed spread of MG faults run through the full per-fault analysis:
//
//   - legacy-loop: the pre-refactor path — clean spans re-split and clean
//     DDDGs rebuilt per fault, unhinted record buffers.
//   - index-loop: a serial AnalyzeFault loop sharing the CleanIndex.
//   - campaign/*: analyzed campaigns over the same faults (FaultList), which
//     add checkpointed prefix sharing and worker-pool parallelism.
//
// Run with -benchmem to see the allocation drop from TraceHint/PrimeTrace
// preallocation and the cached clean artifacts. Every variant reports
// ms/fault; campaign results are pinned equal to the loop by
// TestAnalyzedCampaignMatchesAnalyzeFaultLoop.
func BenchmarkAnalyzedCampaign(b *testing.B) {
	an, err := fliptracker.NewAnalyzer("mg")
	if err != nil {
		b.Fatal(err)
	}
	clean, err := an.CleanTrace()
	if err != nil {
		b.Fatal(err)
	}
	ix, err := an.Index()
	if err != nil {
		b.Fatal(err)
	}
	// A fixed fault spread over the back half of the run (the shape of
	// region campaigns, where checkpointing shares the long prefix), on
	// absorbable mantissa bits so analyses see real pattern activity.
	const tests = 24
	var faults []interp.Fault
	for i := 0; i < tests; i++ {
		step := clean.Steps/2 + uint64(i)*(clean.Steps/2)/tests
		faults = append(faults, interp.Fault{Step: step, Bit: uint8(30 + i%23), Kind: interp.FaultDst})
	}
	perFault := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/float64(b.N*tests), "ms/fault")
	}

	b.Run("legacy-loop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, f := range faults {
				legacyAnalyzeFault(b, an, clean, f)
			}
		}
		perFault(b)
	})
	b.Run("index-loop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, f := range faults {
				if _, err := an.AnalyzeFault(f); err != nil {
					b.Fatal(err)
				}
			}
		}
		perFault(b)
	})
	campaign := func(b *testing.B, par int) {
		for i := 0; i < b.N; i++ {
			c, err := fliptracker.NewCampaign(an.App.NewMachine, an.App.Verify,
				fliptracker.FaultList{Faults: faults},
				fliptracker.WithTests(tests),
				fliptracker.WithParallelism(par),
				ix.AnalysisOption())
			if err != nil {
				b.Fatal(err)
			}
			n := 0
			for fo, err := range c.Stream(context.Background()) {
				if err != nil {
					b.Fatal(err)
				}
				if fa, ok := fo.Analysis.(*fliptracker.FaultAnalysis); !ok || fa == nil {
					b.Fatal("missing analysis payload")
				}
				n++
			}
			if n != tests {
				b.Fatalf("analyzed %d faults, want %d", n, tests)
			}
		}
		perFault(b)
	}
	b.Run("campaign/checkpointed-p1", func(b *testing.B) {
		campaign(b, 1)
	})
	b.Run("campaign/checkpointed-p4", func(b *testing.B) {
		campaign(b, 4)
	})
}

// BenchmarkMPICampaign measures the MPI campaign engine against the
// sequential mpi.Run + per-rank-analysis loop it replaces, on a fixed fault
// spread (FaultList) so every variant does identical work:
//
//   - sequential-loop: one MPIAnalyzer.AnalyzeWorld per fault — a full
//     replayed world plus per-rank analysis, no campaign machinery.
//   - campaign/p*: the analyzed MPI campaign over the same faults at
//     increasing world-level parallelism.
//
// Worlds are the unit of work, so wall clock should scale down with
// parallelism until rank goroutines saturate the cores. Results are pinned
// byte-identical across all variants by TestMPICampaignMatchesSequentialLoop.
func BenchmarkMPICampaign(b *testing.B) {
	const (
		ranks = 3
		tests = 8
	)
	ma, err := fliptracker.NewMPIAnalyzer("is", ranks)
	if err != nil {
		b.Fatal(err)
	}
	ma.FaultRank = 1
	steps := ma.InjectedSteps()
	var faults []interp.Fault
	for i := 0; i < tests; i++ {
		step := steps/2 + uint64(i)*(steps/2)/tests
		faults = append(faults, interp.Fault{Step: step, Bit: uint8(30 + i%23), Kind: interp.FaultDst})
	}
	perWorld := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/float64(b.N*tests), "ms/world")
	}

	b.Run("sequential-loop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, f := range faults {
				if _, err := ma.AnalyzeWorld(f); err != nil {
					b.Fatal(err)
				}
			}
		}
		perWorld(b)
	})
	for _, par := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("campaign/p%d", par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				n := 0
				for wa, err := range ma.StreamWorldAnalysis(context.Background(),
					fliptracker.FaultList{Faults: faults},
					fliptracker.WithTests(tests),
					fliptracker.WithParallelism(par)) {
					if err != nil {
						b.Fatal(err)
					}
					if wa == nil {
						b.Fatal("nil analysis")
					}
					n++
				}
				if n != tests {
					b.Fatalf("analyzed %d worlds, want %d", n, tests)
				}
			}
			perWorld(b)
		})
	}
}

// BenchmarkCheckpointedMPICampaign measures world checkpointing's headline
// win on late-window faults — the shape of region campaigns, where every
// fault lands in the back quarter of the injected rank's run and the shared
// fault-free world prefix dominates from-scratch replay cost:
//
//   - from-scratch: a loop of mpi.Run, every injected world replaying all
//     ranks from step 0 under the clean recording.
//   - checkpointed: the campaign — one forward pass lays world snapshots at
//     collective boundaries; each world restores the nearest snapshot at or
//     before its fault and resumes the suffix.
//
// Both variants run plain (untraced) worlds over the same faults serially,
// so ms/world isolates checkpointing from analysis and worker parallelism.
// Results are pinned identical by TestCheckpointedMPICampaignMatchesDirect.
func BenchmarkCheckpointedMPICampaign(b *testing.B) {
	const (
		ranks = 3
		tests = 16
	)
	ma, err := fliptracker.NewMPIAnalyzer("is", ranks)
	if err != nil {
		b.Fatal(err)
	}
	ma.FaultRank = 1
	steps := ma.InjectedSteps()
	var faults []interp.Fault
	for i := 0; i < tests; i++ {
		step := steps - steps/4 + uint64(i)*(steps/4)/tests
		faults = append(faults, interp.Fault{Step: step, Bit: uint8(30 + i%23), Kind: interp.FaultDst})
	}
	perWorld := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/float64(b.N*tests), "ms/world")
	}
	b.Run("from-scratch", func(b *testing.B) {
		cfg := mpi.Config{
			Ranks:     ranks,
			Seed:      apps.DefaultSeed,
			FaultRank: ma.FaultRank,
			Replay:    ma.Clean().Recording,
			ExtraBind: func(m *interp.Machine, _ int) error { return apps.BindMathHosts(m) },
		}
		for i := 0; i < b.N; i++ {
			for _, f := range faults {
				cfg.Fault = &f
				if _, err := mpi.Run(ma.Prog, cfg); err != nil {
					b.Fatal(err)
				}
			}
		}
		perWorld(b)
	})
	b.Run("checkpointed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c, err := ma.NewCampaign(
				fliptracker.FaultList{Faults: faults},
				fliptracker.WithTests(tests),
				fliptracker.WithParallelism(1))
			if err != nil {
				b.Fatal(err)
			}
			res, err := c.Run(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			if res.Tests != tests {
				b.Fatalf("ran %d worlds, want %d", res.Tests, tests)
			}
		}
		perWorld(b)
	})
}

// BenchmarkSnapshotRestore pins the copy-on-write snapshot primitives
// themselves, outside any campaign: Snapshot() on a machine whose memory is
// fully materialized (the page-table copy checkpointed campaigns pay
// per checkpoint), restore+run at varying memory sizes and dirty fractions
// (the per-injection cost of re-dirtying shared pages), and the MPI world
// variants (forward-pass SnapshotWorld, RestoreWorld resume). Memory size
// scales the page table; the dirty fraction scales how many pages a resumed
// run copies, which is what CoW makes proportional to writes instead of to
// memory size.
func BenchmarkSnapshotRestore(b *testing.B) {
	build := func(memWords, dirtyWords int64) *ir.Program {
		p := ir.NewProgram(fmt.Sprintf("snapbench_%d_%d", memWords, dirtyWords))
		g := p.AllocGlobal("g", memWords, ir.F64)
		bb := p.NewFunc("main", 0)
		one := bb.ConstF(1.0)
		acc := bb.ConstF(0)
		bb.ForI(0, dirtyWords, func(i ir.Reg) {
			w := bb.FAdd(bb.LoadG(g, i), one)
			bb.StoreG(g, i, w)
			bb.BinTo(ir.OpFAdd, acc, acc, w)
		})
		bb.Emit(ir.F64, acc)
		bb.RetVoid()
		bb.Done()
		if err := p.Seal(); err != nil {
			b.Fatal(err)
		}
		return p
	}
	for _, tc := range []struct {
		name                 string
		memWords, dirtyWords int64
	}{
		{"mem=32KB/dirty=6%", 1 << 12, 1 << 8},
		{"mem=512KB/dirty=0.4%", 1 << 16, 1 << 8},
		{"mem=512KB/dirty=100%", 1 << 16, 1 << 16},
	} {
		p := build(tc.memWords, tc.dirtyWords)
		paused := func() *interp.Machine {
			m, err := interp.NewMachine(p)
			if err != nil {
				b.Fatal(err)
			}
			// Materialize every page before pausing, so snapshots measure a
			// fully dirty memory — the state a mid-run checkpoint sees.
			fill := make([]ir.Word, tc.memWords)
			for i := range fill {
				fill[i] = ir.F64Word(float64(i%97) * 0.5)
			}
			m.WriteMem(0, fill)
			if ok, err := m.RunUntil(0); err != nil || !ok {
				b.Fatalf("pause: ok=%v err=%v", ok, err)
			}
			return m
		}
		m := paused()
		b.Run("snapshot/"+tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := m.Snapshot(); err != nil {
					b.Fatal(err)
				}
			}
		})
		snap, err := m.Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		b.Run("restore+run/"+tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rm, err := interp.NewMachine(p)
				if err != nil {
					b.Fatal(err)
				}
				if err := rm.Restore(snap); err != nil {
					b.Fatal(err)
				}
				if _, err := rm.Resume(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	// MPI world variants over a real app: SnapshotWorld pays one fault-free
	// forward pass plus a per-rank page-table copy at the chosen cut;
	// RestoreWorld rebuilds the world from that cut and runs it out.
	a, ok := apps.Get("is")
	if !ok {
		b.Fatal("is app missing")
	}
	p, err := a.MPIProgram()
	if err != nil {
		b.Fatal(err)
	}
	cfg := mpi.Config{
		Ranks:     3,
		Seed:      apps.DefaultSeed,
		FaultRank: 1,
		ExtraBind: func(m *interp.Machine, _ int) error { return apps.BindMathHosts(m) },
	}
	clean, err := mpi.Run(p, cfg)
	if err != nil {
		b.Fatal(err)
	}
	rounds := len(clean.Cuts[0])
	for _, cl := range clean.Cuts {
		if len(cl) < rounds {
			rounds = len(cl)
		}
	}
	if rounds == 0 {
		b.Fatal("is has no collective rounds")
	}
	mid := []int{rounds / 2}
	b.Run("world-snapshot/is/ranks=3", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := mpi.SnapshotWorld(context.Background(), p, cfg, clean, mid); err != nil {
				b.Fatal(err)
			}
		}
	})
	snaps, err := mpi.SnapshotWorld(context.Background(), p, cfg, clean, mid)
	if err != nil {
		b.Fatal(err)
	}
	rcfg := cfg
	rcfg.Replay = clean.Recording
	b.Run("world-restore/is/ranks=3", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := mpi.RestoreWorld(p, rcfg, snaps[0], nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkStaticPrunedCampaign measures what skipping the faults that
// cannot fire buys where it runs: plain 3-rank MPI campaigns with faults on
// rank 1, built through MPIAnalyzer.NewCampaign, which checks each drawn
// fault against the interpreter's fires rule at its step of the clean SID
// log and replays no world for the ones it rejects (NotApplied), against
// the same campaign with the SID log removed (mpi.WithSIDLog(nil)). Both
// halves report ms/fault. The records are pinned identical by
// internal/core's TestMPIPrunedRecords; the benchmark re-checks the Results
// anyway so a -bench run can never report a speedup bought with wrong
// results.
func BenchmarkStaticPrunedCampaign(b *testing.B) {
	const (
		ranks     = 3
		faultRank = 1
		tests     = 64
		seed      = 20181111
	)
	for _, app := range []string{"is", "cg", "kmeans"} {
		ma, err := fliptracker.NewMPIAnalyzer(app, ranks)
		if err != nil {
			b.Fatal(err)
		}
		ma.FaultRank = faultRank
		run := func(b *testing.B, opts ...fliptracker.MPIOption) fliptracker.CampaignResult {
			b.Helper()
			c, err := ma.NewCampaign(nil, append([]fliptracker.MPIOption{
				fliptracker.WithTests(tests),
				fliptracker.WithSeed(seed),
			}, opts...)...)
			if err != nil {
				b.Fatal(err)
			}
			res, err := c.Run(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			return res
		}
		perFault := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/float64(b.N*tests), "ms/fault")
		}
		var plain, pruned fliptracker.CampaignResult
		b.Run(app+"/unpruned", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				plain = run(b, mpi.WithSIDLog(nil))
			}
			perFault(b)
		})
		b.Run(app+"/pruned", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pruned = run(b)
			}
			perFault(b)
		})
		// Zero Tests means a -bench filter skipped that half's closure.
		if plain.Tests != 0 && pruned.Tests != 0 && plain != pruned {
			b.Fatalf("%s: pruned and unpruned campaigns disagree: %+v vs %+v", app, pruned, plain)
		}
	}
}

// --- Ablation benches (DESIGN.md §5) ---

// BenchmarkAblationACLLiveness compares the paper's liveness-refined ACL
// against conservative alive-until-overwritten tainting: the refinement's
// cost and how much it shrinks reported peaks.
func BenchmarkAblationACLLiveness(b *testing.B) {
	an, clean := cleanCG(b)
	faulty, err := an.App.FaultyTrace(interp.TraceFull,
		interp.Fault{Step: midDstStep(b, clean), Bit: 40, Kind: interp.FaultDst})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("with-liveness", func(b *testing.B) {
		var peak int32
		for i := 0; i < b.N; i++ {
			peak = acl.AnalyzeWith(faulty, clean, acl.Options{}).Peak
		}
		b.ReportMetric(float64(peak), "peak-ACL")
	})
	b.Run("conservative", func(b *testing.B) {
		var peak int32
		for i := 0; i < b.N; i++ {
			peak = acl.AnalyzeWith(faulty, clean, acl.Options{SkipLiveness: true}).Peak
		}
		b.ReportMetric(float64(peak), "peak-ACL")
	})
}

// BenchmarkAblationRegionGranularity compares analysis cost at the paper's
// first-level-inner-loop granularity against whole-main-loop granularity
// (§III-A: granularity changes cost, not correctness).
func BenchmarkAblationRegionGranularity(b *testing.B) {
	an, tr := cleanCG(b)
	inner, err := an.RegionInstance("cg_b", 0)
	if err != nil {
		b.Fatal(err)
	}
	outer, err := an.RegionInstance("cg_main", 0)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("inner-loop-region", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dddg.Build(tr, inner)
		}
		b.ReportMetric(float64(inner.Len()), "records")
	})
	b.Run("main-loop-region", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dddg.Build(tr, outer)
		}
		b.ReportMetric(float64(outer.Len()), "records")
	})
}

// BenchmarkAblationTraceSplitting compares per-region-instance analysis
// (trace splitting, §IV-A) against analyzing one whole-trace graph.
func BenchmarkAblationTraceSplitting(b *testing.B) {
	an, tr := cleanCG(b)
	region, err := an.Region("cg_b")
	if err != nil {
		b.Fatal(err)
	}
	spans := trace.NewSpanIndex(tr).Instances(int32(region.ID))
	whole := trace.Span{Start: 0, End: tr.Recs.Len()}
	b.Run("split-per-instance", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, s := range spans {
				dddg.Build(tr, s)
			}
		}
	})
	b.Run("whole-trace", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dddg.Build(tr, whole)
		}
	})
}

// BenchmarkTraceCodec measures the FTRC2 codec (the §IV-A trace-compression
// direction): encode and decode throughput (MB/s of the wire format) plus
// bytes/record, over a real CG clean trace.
func BenchmarkTraceCodec(b *testing.B) {
	_, tr := cleanCG(b)
	sub := &trace.Trace{ProgName: tr.ProgName, Recs: tr.Recs.Slice(0, 50000), Output: tr.Output, Status: tr.Status, Steps: tr.Steps}
	var wire bytes.Buffer
	if err := sub.WriteBinary(&wire); err != nil {
		b.Fatal(err)
	}
	raw := wire.Bytes()
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(len(raw)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			buf.Grow(len(raw))
			if err := sub.WriteBinary(&buf); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(raw))/float64(sub.Recs.Len()), "bytes/rec")
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(raw)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			got, err := trace.ReadBinary(bytes.NewReader(raw))
			if err != nil {
				b.Fatal(err)
			}
			trace.PutRecs(got.Recs)
		}
		b.ReportMetric(float64(len(raw))/float64(sub.Recs.Len()), "bytes/rec")
	})
}

// BenchmarkAblationSelectiveTracing measures §V-B's selective tracing: full
// tracing vs tracing only conj_grad vs markers only.
func BenchmarkAblationSelectiveTracing(b *testing.B) {
	an, tr0 := cleanCG(b)
	cj := an.Prog.FuncByName["conj_grad"]
	run := func(b *testing.B, setup func(m *interp.Machine)) {
		for i := 0; i < b.N; i++ {
			m, err := an.App.NewMachine()
			if err != nil {
				b.Fatal(err)
			}
			m.Mode = interp.TraceFull
			m.TraceHint = tr0.Steps
			setup(m)
			if _, err := m.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("all-functions", func(b *testing.B) {
		run(b, func(m *interp.Machine) {})
	})
	b.Run("conj-grad-only", func(b *testing.B) {
		run(b, func(m *interp.Machine) { m.TraceFuncs = map[int]bool{cj.Index: true} })
	})
	b.Run("no-functions", func(b *testing.B) {
		run(b, func(m *interp.Machine) { m.TraceFuncs = map[int]bool{} })
	})
}

// BenchmarkAblationTracingModes compares the interpreter's two trace modes,
// the cost spectrum behind Figure 4 (BenchmarkAblationSelectiveTracing covers
// markers-only recording: full tracing of no function).
func BenchmarkAblationTracingModes(b *testing.B) {
	an, _ := cleanCG(b)
	for _, mode := range []struct {
		name string
		m    interp.TraceMode
	}{{"off", interp.TraceOff}, {"full", interp.TraceFull}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m, err := an.App.NewMachine()
				if err != nil {
					b.Fatal(err)
				}
				m.Mode = mode.m
				if _, err := m.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
