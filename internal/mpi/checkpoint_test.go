package mpi

import (
	"context"
	"testing"

	"fliptracker/internal/campaign"
	"fliptracker/internal/inject"
	"fliptracker/internal/interp"
	"fliptracker/internal/stats"
)

// TestPlanWorldCheckpoints exercises the planner directly: cuts exist for
// the campaign workload, every fault at or past the first cut is assigned
// the nearest snapshot at or before its step, and earlier faults replay
// from step 0.
func TestPlanWorldCheckpoints(t *testing.T) {
	c := testCampaign(t, 4)
	cuts := c.clean.Cuts[c.base.FaultRank]
	if len(cuts) != 3 {
		t.Fatalf("campaign workload has %d collective cuts on the fault rank, want 3", len(cuts))
	}
	steps := c.clean.Ranks[c.base.FaultRank].Trace.Steps
	faults := []interp.Fault{
		{Step: 0, Bit: 1, Kind: interp.FaultDst},           // before every cut
		{Step: cuts[0], Bit: 1, Kind: interp.FaultDst},     // exactly at a cut
		{Step: cuts[1] - 1, Bit: 1, Kind: interp.FaultDst}, // just before a cut
		{Step: steps - 1, Bit: 1, Kind: interp.FaultDst},   // late window
	}
	plan, err := c.planWorldCheckpoints(context.Background(), faults, allIndices(faults))
	if err != nil {
		t.Fatal(err)
	}
	if plan == nil {
		t.Fatal("planner returned no plan for a workload with collective cuts")
	}
	if len(plan.snaps) == 0 || len(plan.assign) != len(faults) {
		t.Fatalf("plan has %d snaps, %d assignments", len(plan.snaps), len(plan.assign))
	}
	for i, f := range faults {
		si := plan.assign[i]
		if f.Step < cuts[0] {
			if si != -1 {
				t.Errorf("fault %d (step %d) assigned snapshot %d, want a from-step-0 replay", i, f.Step, si)
			}
			continue
		}
		if si < 0 {
			t.Errorf("fault %d (step %d) unassigned despite a preceding cut", i, f.Step)
			continue
		}
		cut := plan.snaps[si].CutStep(c.base.FaultRank)
		if cut > f.Step {
			t.Errorf("fault %d (step %d) assigned cut %d past its step", i, f.Step, cut)
		}
		for sj := si + 1; sj < len(plan.snaps); sj++ {
			if plan.snaps[sj].CutStep(c.base.FaultRank) <= f.Step {
				t.Errorf("fault %d (step %d): later snapshot %d (cut %d) also fits — not the nearest",
					i, f.Step, sj, plan.snaps[sj].CutStep(c.base.FaultRank))
			}
		}
	}
}

// allIndices lists every index of faults: one unpruned window over all of
// them.
func allIndices(faults []interp.Fault) []int {
	live := make([]int, len(faults))
	for i := range live {
		live[i] = i
	}
	return live
}

// fromScratch is the campaign's test oracle: every drawn fault run in index
// order through the per-fault runner with no checkpoint plan, so each world
// replays from step 0.
func fromScratch(t *testing.T, c *Campaign) []WorldOutcome {
	t.Helper()
	faults := c.Faults()
	out := make([]WorldOutcome, len(faults))
	for i, f := range faults {
		wo, err := c.runFault(i, f, nil)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = wo
	}
	return out
}

// TestCampaignAdoptedCleanWithoutCuts: a WithClean Result assembled outside
// mpi.Run carries no collective cut log; the planner must degrade to
// from-step-0 replay (nil plan), not panic, and the campaign must still
// produce the outcomes of the from-scratch oracle.
func TestCampaignAdoptedCleanWithoutCuts(t *testing.T) {
	ref := testCampaign(t, 8)
	stripped := &Result{Ranks: ref.clean.Ranks, Recording: ref.clean.Recording} // no Cuts
	steps := ref.clean.Ranks[1].Trace.Steps
	c, err := NewCampaign(ref.prog, Config{Ranks: 3, Seed: 1, FaultRank: 1, StepLimit: 64 * steps},
		inject.UniformDst{TotalSteps: steps},
		campaign.WithTests(8), campaign.WithSeed(7), WithClean(stripped))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := c.planWorldCheckpoints(context.Background(), []interp.Fault{{Step: steps - 1}}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if plan != nil {
		t.Fatal("cut-less clean world produced a checkpoint plan")
	}
	got, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var want inject.Result
	for _, wo := range fromScratch(t, testCampaign(t, 8)) {
		want.Count(wo.Outcome)
	}
	if got != want {
		t.Fatalf("cut-less campaign %+v, from-scratch reference %+v", got, want)
	}
}

// TestCheckpointedCampaignMatchesDirect pins the checkpointed campaign
// against the from-scratch oracle inside the engine package (the facade
// golden test does the same for analyzed campaigns on a real app):
// identical outcome and propagation streams for the same seed.
func TestCheckpointedCampaignMatchesDirect(t *testing.T) {
	const tests = 24
	c := testCampaign(t, tests, campaign.WithParallelism(2))
	var direct, checkpointed []string
	for _, wo := range fromScratch(t, c) {
		direct = append(direct, digestOutcome(wo))
	}
	for wo, err := range c.Stream(context.Background()) {
		if err != nil {
			t.Fatal(err)
		}
		checkpointed = append(checkpointed, digestOutcome(wo))
	}
	if len(direct) != tests || len(checkpointed) != tests {
		t.Fatalf("streams yielded %d/%d worlds, want %d", len(direct), len(checkpointed), tests)
	}
	for i := range direct {
		if direct[i] != checkpointed[i] {
			t.Errorf("world %d:\nfrom scratch: %s\ncheckpointed: %s", i, direct[i], checkpointed[i])
		}
	}
}

// TestCampaignEarlyStop pins the sequential stopping rule on the MPI world
// outcome stream: for the fixed seed the campaign stops at exactly the world
// the Agresti–Coull rule fires on — computed independently from a full
// no-early-stop stream and pinned literally — identically at parallelism 1
// and 4.
func TestCampaignEarlyStop(t *testing.T) {
	const (
		cap        = 64
		confidence = 0.95
		margin     = 0.09
	)
	ctx := context.Background()

	// The reference: apply the rule to the full outcome stream by hand.
	full := testCampaign(t, cap)
	var res inject.Result
	expected := 0
	for wo, err := range full.Stream(ctx) {
		if err != nil {
			t.Fatal(err)
		}
		res.Count(wo.Outcome)
		expected++
		if res.Tests >= inject.EarlyStopMinTests && res.Tests < cap &&
			stats.AdjustedProportionCI(res.Success, res.Tests, confidence) <= margin {
			break
		}
		_ = wo
	}
	if expected <= inject.EarlyStopMinTests || expected >= cap {
		t.Fatalf("rule fires at %d — degenerate for this test (min %d, cap %d)",
			expected, inject.EarlyStopMinTests, cap)
	}
	// The literal pin for this seed: the stream must stop at world 50.
	if expected != 50 {
		t.Fatalf("rule fires at %d for seed 7, want the pinned 50 (outcome stream changed?)", expected)
	}

	for _, par := range []int{1, 4} {
		c := testCampaign(t, cap, campaign.WithEarlyStop(confidence, margin), campaign.WithParallelism(par))
		got, err := c.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if got.Tests != expected {
			t.Errorf("par=%d: stopped after %d worlds, want %d", par, got.Tests, expected)
		}
		n := 0
		for _, err := range c.Stream(ctx) {
			if err != nil {
				t.Fatal(err)
			}
			n++
		}
		if n != expected {
			t.Errorf("par=%d: stream yielded %d worlds, want %d", par, n, expected)
		}
	}
}

// TestCampaignEarlyStopValidation covers the construction error paths.
func TestCampaignEarlyStopValidation(t *testing.T) {
	p := buildCampaignProg(t)
	targets := inject.UniformDst{TotalSteps: 100}
	base := Config{Ranks: 3, Seed: 1}
	for _, bad := range [][2]float64{{0, 0.05}, {1, 0.05}, {0.95, 0}, {0.95, 1}} {
		if _, err := NewCampaign(p, base, targets, campaign.WithTests(5), campaign.WithEarlyStop(bad[0], bad[1])); err == nil {
			t.Errorf("campaign.WithEarlyStop(%v, %v) should fail", bad[0], bad[1])
		}
	}
}
