package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"

	"fliptracker/internal/apps"
	"fliptracker/internal/core"
	"fliptracker/internal/inject"
	"fliptracker/internal/interp"
)

// target is one fault population a library workload cycles through.
type target struct {
	app    string
	region string // "" for whole-program
	inputs bool   // region inputs rather than region internal
	tests  int
}

func (t target) pop() core.Population {
	switch {
	case t.region == "":
		return core.WholeProgram()
	case t.inputs:
		return core.RegionInputs(t.region, 0)
	}
	return core.RegionInternal(t.region, 0)
}

func (t target) String() string { return t.app + " " + t.pop().String() }

// plainTargets: every shipped application, whole-program, 200 faults each.
func plainTargets() []target {
	var ts []target
	for _, a := range apps.TableIVNames() {
		ts = append(ts, target{app: a, tests: 200})
	}
	return ts
}

// analyzedTargets: populations of the paper's regions cg_b, mg_b, l_a, k_c
// and is_c. Test counts give most campaigns about the same cost (roughly
// 0.25 s at parallelism 2, cg_b inputs 0.5 s). Three populations are left
// out because their per-fault cost is too erratic for a 15 s run to hold
// the run-to-run spread within the benchmark's bounds: cg_b and l_a
// internal (30-70 ms a fault at a coefficient of variation near 1) and is_c
// inputs (0.5). Input populations flip at region entry, so their cost per
// fault is nearly constant.
//
// A round runs mg_b inputs four times and cg_b inputs twice, with fresh
// seeds each time. The extra runs put the campaign-time and first-outcome
// percentiles inside populations with a steady cost instead of in the gap
// between two populations, where they would jump from run to run.
func analyzedTargets() []target {
	mgIn := target{app: "mg", region: "mg_b", inputs: true, tests: 15}
	cgIn := target{app: "cg", region: "cg_b", inputs: true, tests: 5}
	return []target{
		cgIn,
		{app: "mg", region: "mg_b", tests: 48},
		mgIn,
		{app: "lulesh", region: "l_a", inputs: true, tests: 3},
		mgIn,
		{app: "kmeans", region: "k_c", tests: 28},
		mgIn,
		{app: "kmeans", region: "k_c", inputs: true, tests: 11},
		{app: "is", region: "is_c", tests: 20},
		mgIn,
		cgIn,
	}
}

// libSpec is one generated campaign: a target plus its fault-stream seed.
type libSpec struct {
	target
	seed int64
}

// generator yields the workload's campaigns in rounds: each round visits
// every target once, in order, with seeds drawn from the workload seed.
type generator struct {
	rng     *rand.Rand
	targets []target
}

func newGenerator(seed int64, ts []target) *generator {
	return &generator{rng: rand.New(rand.NewSource(seed)), targets: ts}
}

func (g *generator) round() []libSpec {
	out := make([]libSpec, len(g.targets))
	for i, t := range g.targets {
		out[i] = libSpec{target: t, seed: g.rng.Int63()}
	}
	return out
}

// outcomeRec is what a campaign delivered for one fault.
type outcomeRec struct {
	index   int
	fault   interp.Fault
	outcome inject.Outcome
	// ahash digests the analysis payload (analyzed campaigns only).
	ahash uint64
}

// campaignRun is one executed campaign and its timings.
type campaignRun struct {
	spec  libSpec
	wall  time.Duration
	first time.Duration
	recs  []outcomeRec
	err   error
}

func (c *campaignRun) digest() uint64 {
	h := fnv.New64a()
	for _, r := range c.recs {
		fmt.Fprintf(h, "%d %d %d %d %d %d %x\n", r.index, r.fault.Step, r.fault.Bit, r.fault.Kind, r.fault.Addr, r.outcome, r.ahash)
	}
	return h.Sum64()
}

// libEnv holds a library workload's analyzers, built in set-up.
type libEnv struct {
	analyzed bool
	an       map[string]*core.Analyzer
	targets  []target
}

// setupLibrary builds one analyzer per application (clean trace; for analyzed
// workloads the clean index and every clean region DDDG) and runs one small
// warm-up campaign per target, so lazy set-up finishes before timing.
func setupLibrary(targets []target, analyzed bool, parallelism int) (*libEnv, error) {
	env := &libEnv{analyzed: analyzed, an: map[string]*core.Analyzer{}, targets: targets}
	for _, t := range targets {
		if _, ok := env.an[t.app]; ok {
			continue
		}
		an, err := core.NewAnalyzer(t.app)
		if err != nil {
			return nil, err
		}
		if _, err := an.CleanTrace(); err != nil {
			return nil, err
		}
		if analyzed {
			ix, err := an.Index()
			if err != nil {
				return nil, err
			}
			for _, s := range ix.Spans() {
				ix.InputLocs(s)
			}
		}
		env.an[t.app] = an
	}
	for _, t := range targets {
		c, err := env.campaign(libSpec{target: t}, 2, parallelism)
		if err != nil {
			return nil, err
		}
		if _, err := c.Run(context.Background()); err != nil {
			return nil, fmt.Errorf("warm-up %v: %w", t, err)
		}
	}
	return env, nil
}

// timedSetup runs setup reps times and returns the last environment and the
// median set-up time.
func timedSetup(targets []target, analyzed bool, parallelism, reps int) (*libEnv, float64, error) {
	var env *libEnv
	var times []float64
	for i := 0; i < reps; i++ {
		// Release the previous set-up first, so repetitions do not stack
		// up in memory (peak_rss_mb would count them).
		env = nil
		runtime.GC()
		t0 := time.Now()
		e, err := setupLibrary(targets, analyzed, parallelism)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		env = e
	}
	return env, median(times), nil
}

// campaign builds the engine campaign for spec through core.Analyzer, the
// path a library user takes.
func (env *libEnv) campaign(s libSpec, tests, parallelism int) (*inject.Campaign, error) {
	an := env.an[s.app]
	opts := []inject.Option{inject.WithTests(tests), inject.WithSeed(s.seed), inject.WithParallelism(parallelism)}
	if env.analyzed {
		return an.NewAnalyzedCampaign(s.pop(), append(opts, inject.WithDropTraces())...)
	}
	return an.NewCampaign(s.pop(), opts...)
}

// tracedCampaign builds the same campaign as campaign, but wires the
// machine factory, verifier and analysis hook through the span tracer. The
// population's picker is resolved here the way core resolves it;
// traceLibrary checks that both campaigns draw the same faults.
func (env *libEnv) tracedCampaign(s libSpec, tr *tracer) (*inject.Campaign, error) {
	an := env.an[s.app]
	clean, err := an.CleanTrace()
	if err != nil {
		return nil, err
	}
	var picker inject.TargetPicker
	switch {
	case s.region == "":
		picker = inject.UniformDst{TotalSteps: clean.Steps}
	case s.inputs:
		sp, err := an.RegionInstance(s.region, 0)
		if err != nil {
			return nil, err
		}
		locs, err := an.RegionInputLocs(s.region, 0)
		if err != nil {
			return nil, err
		}
		addrs := make([]int64, len(locs))
		for i, l := range locs {
			addrs[i] = l.Addr()
		}
		picker = inject.MemAtStep{Step: clean.Recs.Step(sp.Start), Addrs: addrs}
	default:
		sp, err := an.RegionInstance(s.region, 0)
		if err != nil {
			return nil, err
		}
		picker = inject.StepRangeDst{Lo: clean.Recs.Step(sp.Start), Hi: clean.Recs.Step(sp.End-1) + 1}
	}
	opts := []inject.Option{
		inject.WithTests(s.tests), inject.WithSeed(s.seed), inject.WithParallelism(1),
		inject.WithScheduler(an.Scheduler), inject.WithJournalApp(an.App.Name),
	}
	if env.analyzed {
		ix, err := an.Index()
		if err != nil {
			return nil, err
		}
		opts = append(opts, inject.WithAnalysis(clean, tr.analyzer(ix, an.Prog, an.App.Verify)), inject.WithDropTraces())
	}
	return inject.NewCampaign(tr.factory(an.App.NewMachine), tr.verifier(an.App.Verify), picker, opts...)
}

// runCampaign streams one campaign, timing it from the Stream call to its
// last outcome.
func runCampaign(c *inject.Campaign, s libSpec, tr *tracer) campaignRun {
	run := campaignRun{spec: s, recs: make([]outcomeRec, 0, s.tests)}
	start := time.Now()
	if tr != nil {
		tr.campaignStart(start)
	}
	for fo, err := range c.Stream(context.Background()) {
		if err != nil {
			run.err = err
			break
		}
		if len(run.recs) == 0 {
			run.first = time.Since(start)
		}
		rec := outcomeRec{index: fo.Index, fault: fo.Fault, outcome: fo.Outcome}
		if fa, ok := fo.Analysis.(*core.FaultAnalysis); ok {
			rec.ahash = analysisHash(fa)
		}
		run.recs = append(run.recs, rec)
	}
	end := time.Now()
	if tr != nil {
		tr.campaignEnd(end)
	}
	run.wall = end.Sub(start)
	return run
}

// analysisHash digests the summary artifacts of a fault analysis that
// survive WithDropTraces.
func analysisHash(fa *core.FaultAnalysis) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "o%d|", fa.Outcome)
	if a := fa.ACL; a != nil {
		fmt.Fprintf(h, "acl %d %d %d %d %d %d|", a.InjectionIndex, a.DivergenceIndex, a.Peak, len(a.Series), len(a.Events), len(a.Intervals))
	}
	for _, rr := range fa.Regions {
		fmt.Fprintf(h, "r %d %d %d|", rr.Region.ID, rr.Instance, rr.ACLDrop)
		if c := rr.Comparison; c != nil {
			fmt.Fprintf(h, "c %d %d %d %x %x %v %v|", len(c.CorruptedInputs), len(c.CorruptedOutputs), c.DivergedAt,
				math.Float64bits(c.MaxInputErr), math.Float64bits(c.MaxOutputErr), c.Case1, c.Case2)
		}
		if p := rr.Patterns; p != nil {
			fmt.Fprintf(h, "p %v %d|", p.Found, len(p.Evidence))
		}
	}
	return h.Sum64()
}

// phase runs whole rounds of generated campaigns until seconds have passed.
// It returns the campaigns and each round's cost in ms per fault: every
// round is the same mix, so their median is the phase's cost per fault,
// robust to a stall that hits only part of the phase.
func (env *libEnv) phase(gen *generator, seconds float64, parallelism int) ([]campaignRun, []float64, error) {
	var runs []campaignRun
	var perRound []float64
	start := time.Now()
	for time.Since(start).Seconds() < seconds {
		r0, faults := time.Now(), 0
		for _, s := range gen.round() {
			c, err := env.campaign(s, s.tests, parallelism)
			if err != nil {
				return nil, nil, fmt.Errorf("build %v: %w", s, err)
			}
			run := runCampaign(c, s, nil)
			runs = append(runs, run)
			faults += len(run.recs)
		}
		perRound = append(perRound, ms(time.Since(r0))/float64(faults))
	}
	return runs, perRound, nil
}

// pairedPhase is the traced run's phase: every generated campaign runs
// traced and then untraced, both serially, so the two see the same machine
// state and their difference is the tracing overhead. Whole rounds run
// until the traced campaigns alone have taken seconds.
type pairedPhase struct {
	traced, plain         []campaignRun
	tracedWall, plainWall time.Duration
	plainAllocMB          float64
}

func (env *libEnv) pairedPhase(gen *generator, seconds float64, tr *tracer) (*pairedPhase, error) {
	p := &pairedPhase{}
	for p.tracedWall.Seconds() < seconds {
		for _, s := range gen.round() {
			tc, err := env.tracedCampaign(s, tr)
			if err != nil {
				return nil, fmt.Errorf("build traced %v: %w", s, err)
			}
			run := runCampaign(tc, s, tr)
			p.traced = append(p.traced, run)
			p.tracedWall += run.wall

			c, err := env.campaign(s, s.tests, 1)
			if err != nil {
				return nil, fmt.Errorf("build %v: %w", s, err)
			}
			a0 := allocMB()
			run = runCampaign(c, s, nil)
			p.plainAllocMB += allocMB() - a0
			p.plain = append(p.plain, run)
			p.plainWall += run.wall
		}
	}
	return p, nil
}

// check validates one campaign: a complete, index-ordered stream of the
// campaign's own drawn faults, and a seeded sample of faults re-run from
// scratch (inject.RunOne; with analyze, also Analyzer.AnalyzeFault) whose
// digest must equal the campaign's digest of the same faults.
func (env *libEnv) check(run campaignRun, samples int, analyze bool, r *report) {
	s := run.spec
	if run.err != nil {
		r.fail("%v seed %d: %v", s, s.seed, run.err)
		return
	}
	if len(run.recs) != s.tests {
		r.fail("%v seed %d: %d outcomes, want %d", s, s.seed, len(run.recs), s.tests)
		return
	}
	c, err := env.campaign(s, s.tests, 1)
	if err != nil {
		r.fail("%v: rebuild: %v", s, err)
		return
	}
	faults := c.Faults()
	for i, rec := range run.recs {
		if rec.index != i || rec.fault != faults[i] {
			r.fail("%v seed %d: outcome %d is index %d fault %v, want fault %v", s, s.seed, i, rec.index, &rec.fault, &faults[i])
			return
		}
	}
	an := env.an[s.app]
	rng := rand.New(rand.NewSource(s.seed))
	got, want := fnv.New64a(), fnv.New64a()
	for k := 0; k < samples; k++ {
		i := rng.Intn(len(run.recs))
		rec := run.recs[i]
		o, err := inject.RunOne(an.App.NewMachine, an.App.Verify, rec.fault)
		if err != nil {
			r.fail("%v seed %d: reference run of fault %d: %v", s, s.seed, i, err)
			return
		}
		ahash := rec.ahash
		if analyze {
			fa, err := an.AnalyzeFault(rec.fault)
			if err != nil {
				r.fail("%v seed %d: reference analysis of fault %d: %v", s, s.seed, i, err)
				return
			}
			ahash = analysisHash(fa)
		}
		fmt.Fprintf(got, "%d %d %x|", i, rec.outcome, rec.ahash)
		fmt.Fprintf(want, "%d %d %x|", i, o, ahash)
	}
	if got.Sum64() != want.Sum64() {
		r.fail("%v seed %d: sampled outcome digest %#x, from-scratch reference %#x", s, s.seed, got.Sum64(), want.Sum64())
	}
}

func runPlainWhole(o opts, r *report) error {
	return runLibrary(o, r, plainTargets(), false, 4)
}

func runAnalyzedRegion(o opts, r *report) error {
	return runLibrary(o, r, analyzedTargets(), true, 1)
}

// runLibrary runs either library workload: set-up, the timed or traced
// phase, the output checks and the metrics.
func runLibrary(o opts, r *report, targets []target, analyzed bool, samples int) error {
	nproc := runtime.NumCPU()
	env, setupS, err := timedSetup(targets, analyzed, nproc, setupReps)
	if err != nil {
		return err
	}
	gen := newGenerator(o.seed, targets)
	if o.trace {
		return traceLibrary(o, r, env, gen, samples)
	}

	start := time.Now()
	runs, perRound, err := env.phase(gen, o.seconds, nproc)
	if err != nil {
		return err
	}
	wall := time.Since(start)
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return err
	}
	var walls, firsts []float64
	faults := 0
	for _, run := range runs {
		walls = append(walls, run.wall.Seconds())
		firsts = append(firsts, ms(run.first))
		faults += len(run.recs)
	}
	for i, run := range runs {
		r.attempted++
		// A from-scratch analysis costs as much as the campaign's own
		// faults; every third analyzed campaign gets one, to keep a run
		// within its time budget.
		env.check(run, samples, env.analyzed && i%3 == 0, r)
	}
	r.set("ms_per_fault", median(perRound))
	r.set("campaign_s_p50", median(walls))
	r.set("campaign_s_p90", quantile(walls, 0.9))
	r.set("first_outcome_ms_p50", median(firsts))
	r.set("setup_s", setupS)
	r.set("peak_rss_mb", rss)
	r.note("campaigns=%d rounds=%d faults=%d parallelism=%d wall_s=%.3f whole-phase ms_per_fault=%.4f (p90 over %d samples)",
		len(runs), len(perRound), faults, nproc, wall.Seconds(), ms(wall)/float64(faults), len(walls))
	return nil
}

// traceLibrary is the traced variant: the same generated campaigns run
// serially (parallelism 1) with a span around every call the engine makes
// into the machine factory, the verifier and the analysis layers, so the
// spans partition the wall time. Each campaign also runs untraced at the
// same settings, for the tracing overhead.
func traceLibrary(o opts, r *report, env *libEnv, gen *generator, samples int) error {
	tr := newTracer()
	p, err := env.pairedPhase(gen, o.seconds, tr)
	if err != nil {
		return err
	}
	traced, plain := p.traced, p.plain
	specs := make([]libSpec, len(traced))
	for i, run := range traced {
		specs[i] = run.spec
	}
	faults := 0
	for i := range traced {
		r.attempted++
		faults += len(traced[i].recs)
		if traced[i].err != nil || plain[i].err != nil {
			r.fail("%v seed %d: traced %v, untraced %v", specs[i], specs[i].seed, traced[i].err, plain[i].err)
			continue
		}
		if a, b := traced[i].digest(), plain[i].digest(); a != b {
			r.fail("%v seed %d: traced stream %#x differs from untraced %#x", specs[i], specs[i].seed, a, b)
			continue
		}
		// The traced campaign resolves its own picker: it must draw what
		// core draws.
		c, err := env.campaign(specs[i], specs[i].tests, 1)
		if err != nil {
			r.fail("%v: %v", specs[i], err)
			continue
		}
		tc, err := env.tracedCampaign(specs[i], newTracer())
		if err != nil {
			r.fail("%v: %v", specs[i], err)
			continue
		}
		if !sameFaults(c.Faults(), tc.Faults()) {
			r.fail("%v seed %d: traced campaign draws different faults", specs[i], specs[i].seed)
			continue
		}
		if i%4 == 0 {
			env.check(traced[i], samples, env.analyzed, r)
		}
	}

	f := float64(faults)
	tr.report(r, f, p.tracedWall)
	r.set("go.alloc_mb_per_fault", p.plainAllocMB/f)
	r.set("bench.trace_overhead_frac", p.tracedWall.Seconds()/p.plainWall.Seconds()-1)
	r.set("bench.campaigns", float64(len(traced)))

	apps := map[string]bool{}
	var names []string
	for _, t := range env.targets {
		if !apps[t.app] {
			apps[t.app] = true
			names = append(names, t.app)
		}
	}
	if err := probeInterp(r, names); err != nil {
		return err
	}
	if err := probeCore(r, names); err != nil {
		return err
	}
	r.note("traced campaigns=%d faults=%d traced_wall_s=%.3f untraced_wall_s=%.3f (both parallelism 1)", len(traced), faults, p.tracedWall.Seconds(), p.plainWall.Seconds())
	return nil
}

func sameFaults(a, b []interp.Fault) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
