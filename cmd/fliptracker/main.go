// Command fliptracker is the interactive front end of the FlipTracker
// reproduction: list workloads, dump disassembly and region tables, collect
// traces, analyze single faults (DDDG + ACL + pattern detection), run
// injection campaigns, and export DDDGs as Graphviz dot.
//
// Usage:
//
//	fliptracker list
//	fliptracker regions  -app cg
//	fliptracker disasm   -app cg [-func conj_grad]
//	fliptracker trace    -app cg -out cg.trace
//	fliptracker rates    -app cg
//	fliptracker inject   -app cg -step 12345 -bit 40 [-kind dst|mem|reg] [-addr N]
//	fliptracker campaign -app cg [-target whole|hybrid|internal|input] [-region cg_b] [-instance 0] [-tests N] [-seed S] [-earlystop] [-stream] [-analyze] [-journal path [-resume]]
//	fliptracker campaign -app mg -mpi -ranks 4 [-faultrank R] [-tests N] [-seed S] [-earlystop] [-stream] [-analyze] [-journal path [-resume]]
//	fliptracker dot      -app cg -region cg_b [-instance 0]
//	fliptracker acl      -app lulesh [-step N] [-bit B] [-buckets N]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"fliptracker/internal/apps"
	"fliptracker/internal/core"
	"fliptracker/internal/inject"
	"fliptracker/internal/interp"
	"fliptracker/internal/ir"
	"fliptracker/internal/mpi"
	"fliptracker/internal/patterns"
	"fliptracker/internal/stats"
	"fliptracker/internal/trace"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "list":
		err = cmdList()
	case "regions":
		err = cmdRegions(args)
	case "disasm":
		err = cmdDisasm(args)
	case "trace":
		err = cmdTrace(args)
	case "rates":
		err = cmdRates(args)
	case "inject":
		err = cmdInject(args)
	case "campaign":
		err = cmdCampaign(args)
	case "dot":
		err = cmdDot(args)
	case "acl":
		err = cmdACL(args)
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "fliptracker: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fliptracker:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: fliptracker <command> [flags]
commands: list, regions, disasm, trace, rates, inject, campaign, dot, acl
run "fliptracker <command> -h" for the command's flags`)
}

func cmdList() error {
	for _, n := range apps.Names() {
		a, _ := apps.Get(n)
		fmt.Printf("%-11s %s\n", n, a.Description)
	}
	return nil
}

func cmdRegions(args []string) error {
	fs := flag.NewFlagSet("regions", flag.ExitOnError)
	app := fs.String("app", "cg", "application name")
	fs.Parse(args)
	an, err := core.NewAnalyzer(*app)
	if err != nil {
		return err
	}
	clean, err := an.CleanTrace()
	if err != nil {
		return err
	}
	fmt.Printf("%-12s %-9s %-11s %10s %10s\n", "region", "kind", "lines", "instances", "instrs/it0")
	ix := trace.NewSpanIndex(clean)
	for _, r := range an.Prog.Regions {
		kind := "region"
		if r.MainLoop {
			kind = "main-loop"
		}
		inst := ix.Instances(int32(r.ID))
		size := 0
		if len(inst) > 0 {
			size = inst[0].Len()
		}
		fmt.Printf("%-12s %-9s %4d-%-6d %10d %10d\n", r.Name, kind, r.FirstLine, r.LastLine, len(inst), size)
	}
	return nil
}

func cmdDisasm(args []string) error {
	fs := flag.NewFlagSet("disasm", flag.ExitOnError)
	app := fs.String("app", "cg", "application name")
	fn := fs.String("func", "", "function name (default: whole program)")
	fs.Parse(args)
	an, err := core.NewAnalyzer(*app)
	if err != nil {
		return err
	}
	if *fn == "" {
		fmt.Print(an.Prog.Disassemble())
		return nil
	}
	d, ok := an.Prog.DisassembleFunc(*fn)
	if !ok {
		return fmt.Errorf("no function %q in %s", *fn, *app)
	}
	fmt.Print(d)
	return nil
}

func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	app := fs.String("app", "cg", "application name")
	out := fs.String("out", "", "output trace file")
	funcs := fs.String("funcs", "", "comma-separated function names to trace selectively (default: all)")
	fs.Parse(args)
	if *out == "" {
		return fmt.Errorf("-out is required")
	}
	an, err := core.NewAnalyzer(*app)
	if err != nil {
		return err
	}
	var tr *trace.Trace
	if *funcs == "" {
		tr, err = an.CleanTrace()
		if err != nil {
			return err
		}
	} else {
		// Selective tracing (§V-B): record only the named functions.
		sel := map[int]bool{}
		for _, name := range strings.Split(*funcs, ",") {
			f, ok := an.Prog.FuncByName[strings.TrimSpace(name)]
			if !ok {
				return fmt.Errorf("no function %q in %s", name, *app)
			}
			sel[f.Index] = true
		}
		m, err := an.App.NewMachine()
		if err != nil {
			return err
		}
		m.Mode = interp.TraceFull
		m.TraceFuncs = sel
		tr, err = m.Run()
		if err != nil {
			return err
		}
	}
	if err := tr.WriteBinaryFile(*out); err != nil {
		return err
	}
	fmt.Printf("wrote %d records (%d dynamic steps, FTRC2 format) to %s\n",
		tr.Recs.Len(), tr.Steps, *out)
	return nil
}

func cmdRates(args []string) error {
	fs := flag.NewFlagSet("rates", flag.ExitOnError)
	app := fs.String("app", "cg", "application name")
	fs.Parse(args)
	an, err := core.NewAnalyzer(*app)
	if err != nil {
		return err
	}
	r, err := an.PatternRates()
	if err != nil {
		return err
	}
	names := patterns.FeatureNames()
	for i, v := range r.Vector() {
		fmt.Printf("%-16s %.6g\n", names[i], v)
	}
	return nil
}

func cmdInject(args []string) error {
	fs := flag.NewFlagSet("inject", flag.ExitOnError)
	app := fs.String("app", "cg", "application name")
	step := fs.Uint64("step", 0, "dynamic step to inject at")
	bit := fs.Int("bit", 40, "bit to flip (0-63)")
	kind := fs.String("kind", "dst", "fault kind: dst, mem, reg")
	addr := fs.Int64("addr", 0, "memory word (kind=mem)")
	reg := fs.Int("reg", 0, "register (kind=reg)")
	fs.Parse(args)
	b, err := faultBit(*bit)
	if err != nil {
		return err
	}
	an, err := core.NewAnalyzer(*app)
	if err != nil {
		return err
	}
	f := interp.Fault{Step: *step, Bit: b}
	switch *kind {
	case "dst":
		f.Kind = interp.FaultDst
	case "mem":
		f.Kind, f.Addr = interp.FaultMem, *addr
	case "reg":
		f.Kind, f.Reg = interp.FaultReg, ir.Reg(*reg)
	default:
		return fmt.Errorf("unknown kind %q", *kind)
	}
	fa, err := an.AnalyzeFault(f)
	if err != nil {
		return err
	}
	fmt.Printf("fault: %s\noutcome: %s\n", f.String(), fa.Outcome)
	fmt.Printf("injection record: %d, control-flow divergence: %d, peak ACL: %d\n",
		fa.ACL.InjectionIndex, fa.ACL.DivergenceIndex, fa.ACL.Peak)
	for _, rr := range fa.Regions {
		fmt.Printf("region %s #%d: inputs corrupted %d, outputs corrupted %d, case1=%v case2=%v ACLdrop=%d\n",
			rr.Region.Name, rr.Instance,
			len(rr.Comparison.CorruptedInputs), len(rr.Comparison.CorruptedOutputs),
			rr.Comparison.Case1, rr.Comparison.Case2, rr.ACLDrop)
		for _, ev := range rr.Patterns.Evidence {
			fmt.Printf("  %-25s line %-5d %-14s %s\n",
				ev.Pattern, ev.Line, trace.Describe(ev.Loc, an.Prog), ev.Note)
		}
	}
	return nil
}

// faultBit checks a -bit flag: a word has bits 0 to 63, and a wider value
// would wrap through uint8 to another bit or flip nothing at all.
func faultBit(bit int) (uint8, error) {
	if bit < 0 || bit > 63 {
		return 0, fmt.Errorf("-bit %d outside [0, 63]", bit)
	}
	return uint8(bit), nil
}

func cmdCampaign(args []string) error {
	fs := flag.NewFlagSet("campaign", flag.ExitOnError)
	app := fs.String("app", "cg", "application name")
	region := fs.String("region", "", "region name (for the internal/input targets)")
	instance := fs.Int("instance", 0, "region instance")
	target := fs.String("target", "", "population: whole, hybrid, internal or input (default: whole, or internal when -region is set)")
	tests := fs.Int("tests", 0, "injections (0: statistical sizing at 95%/3%)")
	seed := fs.Int64("seed", 1, "campaign seed")
	earlyStop := fs.Bool("earlystop", false, "stop sequentially once the 95% CI is within 3%")
	stream := fs.Bool("stream", false, "print one line per fault outcome as the campaign runs")
	analyze := fs.Bool("analyze", false, "run the full per-fault analysis (ACL, DDDG comparison, patterns) on every injection and stream one line per fault; implies -stream")
	mpiMode := fs.Bool("mpi", false, "run a multi-rank MPI campaign: each injection replays a full world with the fault on one rank")
	ranks := fs.Int("ranks", 4, "MPI world size (with -mpi)")
	faultRank := fs.Int("faultrank", 0, "rank the faults are injected into (with -mpi)")
	journalPath := fs.String("journal", "", "durable journal path: outcomes are committed per fault and a killed campaign resumes from its last committed index")
	resume := fs.Bool("resume", false, "require -journal to already exist and resume it (without -resume, an existing journal is an error)")
	fs.Parse(args)

	// The flags fill the campaign service's Spec, so both front ends check
	// and build a campaign the same way.
	spec := core.Spec{App: *app, Engine: "inject", Seed: *seed, Tests: *tests}
	if *earlyStop {
		spec.EarlyStop = &core.EarlyStopSpec{Confidence: 0.95, Margin: 0.03}
	}
	if *mpiMode {
		spec.Engine, spec.Ranks, spec.FaultRank = "mpi", *ranks, *faultRank
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if set["target"] || set["region"] || set["instance"] {
		kind, ok := map[string]string{"": "whole-program", "whole": "whole-program", "hybrid": "hybrid", "internal": "region-internal", "input": "region-inputs"}[*target]
		if !ok {
			return fmt.Errorf("unknown target %q (want whole, hybrid, internal or input)", *target)
		}
		if *target == "" && *region != "" {
			kind = "region-internal"
		}
		spec.Population = &core.PopulationSpec{Kind: kind, Region: *region, Instance: *instance}
	}
	// -tests 0 asks for statistical sizing, which needs the analyzer; the
	// rest of the spec is checked before anything is built or printed.
	check := spec
	if check.Tests == 0 {
		check.Tests = 1
	}
	if err := check.Validate(); err != nil {
		return err
	}
	if *analyze && *journalPath != "" {
		return fmt.Errorf("-analyze does not combine with -journal (analysis payloads are not journaled)")
	}

	// A journaled campaign is resumable by construction; -resume only
	// states intent, so a stale journal can never be continued by accident
	// and a typo'd path can never silently start a fresh campaign.
	if *resume && *journalPath == "" {
		return fmt.Errorf("-resume needs -journal")
	}
	if *journalPath != "" {
		st, err := os.Stat(*journalPath)
		exists := err == nil && st.Size() > 0
		if exists && !*resume {
			return fmt.Errorf("journal %s already exists; pass -resume to continue it", *journalPath)
		}
		if !exists && *resume {
			return fmt.Errorf("journal %s does not exist, nothing to resume", *journalPath)
		}
	}

	// Ctrl-C cancels the campaign; partial results are still reported.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()

	var (
		analyzers core.Analyzers
		an        *core.Analyzer
		ma        *core.MPIAnalyzer
		size      uint64
		err       error
	)
	pop := spec.Population.Population()
	header := fmt.Sprintf("campaign on %s (%s): ", spec.App, pop)
	if spec.Engine == "mpi" {
		ma, err = analyzers.MPIAnalyzer(spec.App, spec.Ranks, spec.FaultRank)
		if err == nil {
			// Whole-program sizing over the injected rank's dynamic trace.
			size = ma.InjectedSteps() * 64
			header = fmt.Sprintf("MPI campaign on %s: %d ranks, faults on rank %d, ", spec.App, spec.Ranks, spec.FaultRank)
		}
	} else if an, err = analyzers.Analyzer(spec.App); err == nil {
		size, err = an.PopulationSize(pop)
	}
	if err != nil {
		return err
	}
	if spec.Tests == 0 {
		spec.Tests = stats.SampleSize(size, 0.95, 0.03)
	}
	fmt.Printf("%s%d tests\n", header, spec.Tests)

	var r inject.Result
	propCounts := map[mpi.PropagationClass]int{}
	var runErr error
	var patternCounts [patterns.NumPatterns]int
	patternsOver := ""
	switch {
	case *analyze && an != nil:
		// Analyzed campaign: every injection runs fully traced and the
		// complete per-fault analysis streams back in fault-index order.
		patternsOver = "analyzed faults"
		for fa, err := range an.StreamAnalysis(ctx, pop, spec.Options()...) {
			if err != nil {
				runErr = err
				break
			}
			fmt.Printf("#%-6d %-32s -> %-8s peak-ACL %-5d regions %-3d %s\n",
				r.Tests, fa.Fault.String(), fa.Outcome, fa.ACL.Peak, len(fa.Regions), tally(fa.PatternsFound(), &patternCounts))
			r.Count(fa.Outcome)
		}
	case *analyze:
		patternsOver = "analyzed worlds (any rank)"
		for wa, err := range ma.StreamWorldAnalysis(ctx, nil, spec.Options()...) {
			if err != nil {
				runErr = err
				break
			}
			propCounts[wa.Propagation.Class]++
			var found [patterns.NumPatterns]bool
			for _, fa := range wa.Ranks {
				for p, f := range fa.PatternsFound() {
					found[p] = found[p] || f
				}
			}
			fmt.Printf("#%-6d %-32s -> %-8s %-18s inj-rank peak-ACL %-5d %s\n",
				r.Tests, wa.Fault.String(), wa.Outcome, wa.Propagation,
				wa.Ranks[spec.FaultRank].ACL.Peak, tally(found, &patternCounts))
			r.Count(wa.Outcome)
		}
	default:
		runner, err := spec.Build(&analyzers, *journalPath)
		if err != nil {
			return err
		}
		for rec, err := range runner.Records(ctx) {
			if err != nil {
				runErr = err
				break
			}
			o := inject.Outcome(rec.Outcome)
			r.Count(o)
			prop := mpi.Propagation{Class: mpi.PropagationClass(rec.PropClass), Ranks: rec.PropRanks}
			propCounts[prop.Class]++
			switch {
			case !*stream:
			case ma != nil:
				fmt.Printf("#%-6d %-32s -> %-8s %s\n", rec.Index, rec.Fault.String(), o, prop)
			default:
				fmt.Printf("#%-6d %-32s -> %s\n", rec.Index, rec.Fault.String(), o)
			}
		}
	}
	if *analyze && r.Tests > 0 {
		fmt.Printf("patterns across %s:\n", patternsOver)
		for p := 0; p < patterns.NumPatterns; p++ {
			fmt.Printf("  %-25s %d\n", patterns.Pattern(p), patternCounts[p])
		}
	}
	if runErr != nil {
		fmt.Printf("campaign stopped early (%v); partial results over %d tests:\n", runErr, r.Tests)
	} else if r.Tests < spec.Tests {
		fmt.Printf("early stop after %d of %d tests (CI within margin):\n", r.Tests, spec.Tests)
	}
	if r.Tests > 0 {
		fmt.Printf("success %d, failed %d, crashed %d, not-applied %d\n", r.Success, r.Failed, r.Crashed, r.NotApplied)
		if spec.Engine == "mpi" {
			fmt.Printf("propagation: contained %d, propagated %d, world-crash %d\n",
				propCounts[mpi.Contained], propCounts[mpi.Propagated], propCounts[mpi.WorldCrash])
		}
		ci := stats.ProportionCI(r.SuccessRate(), r.Tests, 0.95)
		fmt.Printf("success rate %.3f ± %.3f (95%% CI), crash rate %.3f\n", r.SuccessRate(), ci, r.CrashRate())
	}
	return runErr
}

// tally counts the found patterns into counts and returns their short
// names, comma-separated.
func tally(found [patterns.NumPatterns]bool, counts *[patterns.NumPatterns]int) string {
	var names []string
	for p, f := range found {
		if f {
			counts[p]++
			names = append(names, patterns.Pattern(p).Short())
		}
	}
	return strings.Join(names, ",")
}

func cmdACL(args []string) error {
	fs := flag.NewFlagSet("acl", flag.ExitOnError)
	app := fs.String("app", "lulesh", "application name")
	step := fs.Uint64("step", 0, "dynamic step to inject at (0: middle of the run)")
	bit := fs.Int("bit", 50, "bit to flip (0-63)")
	buckets := fs.Int("buckets", 40, "curve resolution")
	fs.Parse(args)
	b, err := faultBit(*bit)
	if err != nil {
		return err
	}
	an, err := core.NewAnalyzer(*app)
	if err != nil {
		return err
	}
	clean, err := an.CleanTrace()
	if err != nil {
		return err
	}
	s := *step
	if s == 0 {
		s = clean.Steps / 2
	}
	fa, err := an.AnalyzeFault(interp.Fault{Step: s, Bit: b, Kind: interp.FaultDst})
	if err != nil {
		return err
	}
	fmt.Printf("fault at step %d bit %d -> outcome %s, peak ACL %d\n", s, *bit, fa.Outcome, fa.ACL.Peak)
	series := fa.ACL.Series
	start := fa.ACL.InjectionIndex
	if start < 0 {
		fmt.Println("no corruption observed (fault never fired or was instantly masked)")
		return nil
	}
	n := len(series) - start
	bk := *buckets
	if n < bk {
		bk = n
	}
	if bk == 0 {
		return nil
	}
	per := n / bk
	if per == 0 {
		per = 1
	}
	for i := 0; i < bk; i++ {
		lo := start + i*per
		hi := lo + per
		if hi > len(series) {
			hi = len(series)
		}
		var mx int32
		for j := lo; j < hi; j++ {
			if series[j] > mx {
				mx = series[j]
			}
		}
		bar := int(mx)
		if bar > 70 {
			bar = 70
		}
		fmt.Printf("%10d %5d %s\n", lo, mx, strings.Repeat("#", bar))
	}
	return nil
}

func cmdDot(args []string) error {
	fs := flag.NewFlagSet("dot", flag.ExitOnError)
	app := fs.String("app", "cg", "application name")
	region := fs.String("region", "", "region name")
	instance := fs.Int("instance", 0, "region instance")
	fs.Parse(args)
	if *region == "" {
		return fmt.Errorf("-region is required")
	}
	an, err := core.NewAnalyzer(*app)
	if err != nil {
		return err
	}
	g, err := an.RegionDDDG(*region, *instance)
	if err != nil {
		return err
	}
	fmt.Print(g.DOT(an.Prog, strings.Join([]string{*app, *region}, "_")))
	return nil
}
