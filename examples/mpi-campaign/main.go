// MPI-campaign: the paper's multi-rank methodology end to end — record one
// fault-free world, replay it under a fault-injection campaign with every
// fault landing on a single rank, classify each world's outcome (§II-A) and
// how far the corruption spread across ranks, and run the full per-rank
// analysis (ACL, DDDG comparison, pattern detection) on an analyzed world.
//
// Reproduces: §IV-A (per-process traces, single-process injection) and §V-B
// (deterministic replay), scaled from one process to the whole world by the
// MPI campaign engine.
package main

import (
	"context"
	"fmt"
	"log"

	"fliptracker"
)

func main() {
	const ranks = 3

	// One fault-free fully traced world, one CleanIndex per rank.
	ma, err := fliptracker.NewMPIAnalyzer("is", ranks)
	if err != nil {
		log.Fatal(err)
	}
	ma.FaultRank = 1 // "we focus on the single process where the fault is injected"
	fmt.Printf("clean world: %d ranks, rank 1 runs %d dynamic steps\n",
		ranks, ma.InjectedSteps())

	// A plain campaign: worlds replay untraced, outcomes and propagation
	// stream in deterministic fault-index order.
	c, err := ma.NewCampaign(nil,
		fliptracker.WithTests(24),
		fliptracker.WithSeed(20180911),
		fliptracker.WithParallelism(4))
	if err != nil {
		log.Fatal(err)
	}
	var agg fliptracker.CampaignResult
	prop := map[fliptracker.PropagationClass]int{}
	for wo, err := range c.Stream(context.Background()) {
		if err != nil {
			log.Fatal(err)
		}
		agg.Count(wo.Outcome)
		prop[wo.Propagation.Class]++
	}
	fmt.Printf("campaign: success %d, failed %d, crashed %d, not-applied %d\n",
		agg.Success, agg.Failed, agg.Crashed, agg.NotApplied)
	fmt.Printf("propagation: contained %d, propagated %d, world-crash %d\n",
		prop[fliptracker.PropagationContained],
		prop[fliptracker.PropagationPropagated],
		prop[fliptracker.PropagationWorldCrash])

	// The campaign above resumed injected worlds from snapshots cut at
	// collective boundaries instead of replaying every rank from step 0. A
	// sequential loop that replays each drawn fault from scratch reproduces
	// the aggregate exactly, it just replays more.
	var seq fliptracker.CampaignResult
	for _, f := range c.Faults() {
		wa, err := ma.AnalyzeWorld(f)
		if err != nil {
			log.Fatal(err)
		}
		seq.Count(wa.Outcome)
	}
	fmt.Printf("from-scratch loop agrees: %v\n", seq == agg)

	// An analyzed world: per-rank ACL tables and pattern detection, with
	// the world-level classification on top.
	for wa, err := range ma.StreamWorldAnalysis(context.Background(), nil,
		fliptracker.WithTests(1), fliptracker.WithSeed(7)) {
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("analyzed world: %s -> %s, %s\n", wa.Fault.String(), wa.Outcome, wa.Propagation)
		for r, fa := range wa.Ranks {
			mark := ""
			if r == wa.FaultRank {
				mark = "  <- fault injected here"
			}
			fmt.Printf("  rank %d: outcome %-11s peak ACL %-4d regions touched %d%s\n",
				r, fa.Outcome, fa.ACL.Peak, len(fa.Regions), mark)
		}
	}
}
