package fliptracker_test

import (
	"context"
	"fmt"
	"log"
	"time"

	"fliptracker"
)

// ExampleAnalyzer_Campaign measures a code region's success rate (Eq. 1)
// over its internal-location population with the v2 campaign API: a typed
// Population plus functional options.
func ExampleAnalyzer_Campaign() {
	an, err := fliptracker.NewAnalyzer("cg")
	if err != nil {
		log.Fatal(err)
	}
	res, err := an.Campaign(context.Background(),
		fliptracker.RegionInternal("cg_b", 0),
		fliptracker.WithTests(1067), // stats.SampleSize at 95%/3%
		fliptracker.WithSeed(1),
		fliptracker.WithEarlyStop(0.95, 0.03))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("success rate %.3f over %d injections\n", res.SuccessRate(), res.Tests)
}

// ExampleCampaign_Stream consumes a campaign fault by fault. Outcomes
// arrive in deterministic fault-index order for a fixed seed, whatever the
// parallelism, and breaking out of the loop stops the workers.
func ExampleCampaign_Stream() {
	an, err := fliptracker.NewAnalyzer("cg")
	if err != nil {
		log.Fatal(err)
	}
	c, err := an.NewCampaign(fliptracker.WholeProgram(),
		fliptracker.WithTests(500), fliptracker.WithSeed(7))
	if err != nil {
		log.Fatal(err)
	}
	var res fliptracker.CampaignResult
	for fo, err := range c.Stream(context.Background()) {
		if err != nil {
			log.Fatal(err)
		}
		res.Count(fo.Outcome)
		if fo.Outcome == fliptracker.Crashed {
			fmt.Printf("fault #%d (%v) crashed the run\n", fo.Index, fo.Fault)
		}
	}
	fmt.Printf("crash rate %.3f\n", res.CrashRate())
}

// ExampleAnalyzer_StreamAnalysis runs an analyzed campaign: every injection
// executes fully traced inside the worker pool and streams back its complete
// fine-grained analysis (ACL table, per-region DDDG comparison, resilience
// patterns), all sharing the analyzer's one CleanIndex. Analyses arrive in
// deterministic fault-index order for a fixed seed.
func ExampleAnalyzer_StreamAnalysis() {
	an, err := fliptracker.NewAnalyzer("cg")
	if err != nil {
		log.Fatal(err)
	}
	var counts [fliptracker.NumPatterns]int
	for fa, err := range an.StreamAnalysis(context.Background(),
		fliptracker.RegionInputs("cg_b", 0),
		fliptracker.WithTests(64),
		fliptracker.WithSeed(1),
		fliptracker.WithParallelism(8)) {
		if err != nil {
			log.Fatal(err)
		}
		if fa.Outcome != fliptracker.Success {
			continue // only tolerated faults reveal resilience patterns
		}
		for p, found := range fa.PatternsFound() {
			if found {
				counts[p]++
			}
		}
	}
	fmt.Printf("data-overwriting tolerated %d faults\n", counts[fliptracker.Overwriting])
}

// ExampleAnalyzer_NewCampaign shows cancellation and progress: campaigns
// stop promptly when their context is cancelled and report a well-formed
// partial result.
func ExampleAnalyzer_NewCampaign() {
	an, err := fliptracker.NewAnalyzer("lulesh")
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	res, err := an.Campaign(ctx, fliptracker.Hybrid(),
		fliptracker.WithTests(100_000),
		fliptracker.WithProgress(func(done, total int) {
			if done%10_000 == 0 {
				fmt.Printf("%d/%d\n", done, total)
			}
		}))
	if err != nil {
		// context.DeadlineExceeded: res holds the outcomes finished so far.
		fmt.Printf("stopped after %d injections: %v\n", res.Tests, err)
	}
}

// ExampleWithJournal shows a durable campaign: every outcome is committed
// to an append-only checksummed journal before it is delivered, so a
// campaign killed partway — machine crash, OOM kill, Ctrl-C — resumes from
// its last committed fault instead of restarting. Running the same code
// again with the same journal path replays the committed prefix from disk
// and injects only the remainder; the merged Result is byte-identical to an
// uninterrupted run.
func ExampleWithJournal() {
	an, err := fliptracker.NewAnalyzer("cg")
	if err != nil {
		log.Fatal(err)
	}
	res, err := an.Campaign(context.Background(), fliptracker.WholeProgram(),
		fliptracker.WithTests(10_000),
		fliptracker.WithSeed(42),
		fliptracker.WithJournal("cg.journal"))
	if err != nil {
		// A torn tail from a previous kill is truncated automatically; an
		// error here means the journal belongs to a different campaign
		// (fliptracker.ErrJournalMismatch) or its header is damaged
		// (fliptracker.ErrJournalCorruptHeader).
		log.Fatal(err)
	}
	fmt.Printf("success rate %.3f over %d injections\n", res.SuccessRate(), res.Tests)
}
