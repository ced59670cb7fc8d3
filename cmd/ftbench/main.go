// Command ftbench regenerates the paper's tables and figures.
//
// Usage:
//
//	ftbench -exp fig5            # one experiment, quick mode
//	ftbench -exp all -full       # every experiment at paper-scale sizing
//	ftbench -exp fig4 -ranks 64  # Figure 4 at the paper's world size
//
// Quick mode caps injection campaigns at ~120 tests per target; -full sizes
// them with the paper's statistical rule (95%/3% for §V, 99%/1% for §VII),
// which is slower but statistically equivalent to the original setup. In
// full mode, campaigns stop sequentially as soon as their success-rate
// confidence interval meets the sizing margin (-earlystop=false restores
// the fixed worst-case sample size).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"fliptracker/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (fig4 fig5 fig6 fig7 tab1 tab2 tab3 tab4) or all")
	full := flag.Bool("full", false, "paper-scale statistical sizing (slow)")
	ranks := flag.Int("ranks", 8, "MPI world size for fig4 (paper: 64)")
	runs := flag.Int("runs", 5, "timing repetitions for tab3 (paper: 20)")
	seed := flag.Int64("seed", 20181111, "campaign seed")
	earlyStop := flag.Bool("earlystop", true, "with -full, stop each campaign sequentially once its confidence interval meets the sizing margin (fewer injections, rate within margin); set to false for the fixed worst-case sample size")
	fig7Data := flag.String("fig7data", "", "also write the Figure 7 ACL series as a gnuplot data file")
	flag.Parse()

	opts := experiments.DefaultOptions()
	opts.Quick = !*full
	opts.Ranks = *ranks
	opts.Runs = *runs
	opts.Seed = *seed
	opts.EarlyStop = *full && *earlyStop

	ids := experiments.IDs()
	if *exp != "all" {
		ids = []string{*exp}
	}
	for _, id := range ids {
		start := time.Now()
		out, err := experiments.Run(id, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ftbench: %s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Printf("=== %s (%.1fs) ===\n%s\n", id, time.Since(start).Seconds(), out)
	}
	if *fig7Data != "" {
		r, err := experiments.ACLSeries(opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ftbench: fig7data:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*fig7Data, []byte(r.GnuplotData()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "ftbench: fig7data:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote Figure 7 gnuplot data to %s\n", *fig7Data)
	}
}
