package mpi

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"fliptracker/internal/campaign"
	"fliptracker/internal/inject"
	"fliptracker/internal/interp"
	"fliptracker/internal/ir"
	"fliptracker/internal/stats"
	"fliptracker/internal/trace"
)

// TestPlanWorldCheckpoints exercises the planner directly: cuts exist for
// the campaign workload, every fault at or past the first cut is given the
// snapshot of the nearest cut at or before its step, and earlier faults
// replay from step 0.
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
	snapAt := make([]*WorldSnapshot, len(faults))
	if err := c.planWorldCheckpoints(context.Background(), faults, allIndices(faults), snapAt); err != nil {
		t.Fatal(err)
	}
	for i, f := range faults {
		snap := snapAt[i]
		if f.Step < cuts[0] {
			if snap != nil {
				t.Errorf("fault %d (step %d) assigned the round-%d snapshot, want a from-step-0 replay", i, f.Step, snap.Round())
			}
			continue
		}
		if snap == nil {
			t.Errorf("fault %d (step %d) unassigned despite a preceding cut", i, f.Step)
			continue
		}
		if cut := snap.CutStep(c.base.FaultRank); cut > f.Step {
			t.Errorf("fault %d (step %d) assigned cut %d past its step", i, f.Step, cut)
		}
		if k := snap.Round() + 1; k < len(cuts) && cuts[k] <= f.Step {
			t.Errorf("fault %d (step %d): later cut %d (round %d) also fits — not the nearest",
				i, f.Step, cuts[k], k)
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
// order through the per-fault runner with no snapshot, so each world
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
// from-step-0 replay (no snapshot), not panic, and the campaign must still
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
	snapAt := make([]*WorldSnapshot, 1)
	if err := c.planWorldCheckpoints(context.Background(), []interp.Fault{{Step: steps - 1}}, []int{0}, snapAt); err != nil {
		t.Fatal(err)
	}
	if snapAt[0] != nil {
		t.Fatal("cut-less clean world produced a world checkpoint")
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

// buildCallRetProg is an MPI workload whose clean rank traces are not
// step-monotonic: main calls a value-returning function that allreduces
// inside the call, so every collective cut falls inside a callee and each
// call's OpRet record, stamped with the call-site's step, is emitted after
// the callee's higher-step records.
func buildCallRetProg(t testing.TB) *ir.Program {
	t.Helper()
	p := ir.NewProgram("mpicallret")
	DeclareHosts(p)
	vec := p.AllocGlobal("vec", 4, ir.F64)
	reduce := p.NewFunc("reduce", 1)
	x := ir.Reg(0)
	for i := int64(0); i < 4; i++ {
		reduce.StoreGI(vec, i, reduce.FMul(x, reduce.ConstF(float64(i)+0.5)))
	}
	reduce.Host(HostAllreduceSum, 2, false, reduce.ConstI(vec.Addr), reduce.ConstI(4))
	reduce.Ret(reduce.FAdd(reduce.LoadGI(vec, 1), reduce.LoadGI(vec, 3)))
	reduce.Done()
	b := p.NewFunc("main", 0)
	rf := b.SIToFP(b.Host(HostRank, 0, true))
	acc := b.ConstF(0)
	b.ForI(0, 3, func(i ir.Reg) {
		b.BinTo(ir.OpFAdd, acc, acc, b.Call("reduce", b.FAdd(rf, b.SIToFP(b.AddI(i, 1)))))
	})
	b.Emit(ir.F64, acc)
	b.Emit(ir.F64, b.LoadGI(vec, 0))
	b.RetVoid()
	b.Done()
	if err := p.Seal(); err != nil {
		t.Fatal(err)
	}
	return p
}

// pendingCallAt reports whether a run paused at step at is inside a
// value-returning call that has yet to return: some OpRet record of clean,
// stamped with its call site's step below at, comes after a record stamped
// at or after at, so it was emitted after the pause.
func pendingCallAt(clean *trace.Recs, at uint64) bool {
	past := false
	for i := 0; i < clean.Len(); i++ {
		if clean.Step(i) >= at {
			past = true
		} else if past && clean.Op(i) == ir.OpRet {
			return true
		}
	}
	return false
}

// TestAnalyzedCampaignNonMonotonicRankTraces is the MPI analog of inject's
// TestAnalyzedCampaignNonMonotonicTrace: every collective cut of the
// fixture falls inside a value-returning call, so no rank's clean record
// steps are monotonic. Analyzed worlds must still run restored from world
// snapshots, and every fault's per-rank traces and outcome must equal a
// direct traced mpi.Run of the same fault under the clean recording.
func TestAnalyzedCampaignNonMonotonicRankTraces(t *testing.T) {
	p := buildCallRetProg(t)
	clean, err := Run(p, Config{Ranks: 3, Seed: 1, Mode: interp.TraceFull})
	if err != nil {
		t.Fatal(err)
	}
	if len(clean.Cuts[1]) == 0 {
		t.Fatal("fixture defect: no collective cuts, so there is nothing to stitch at")
	}
	steps := clean.Ranks[1].Trace.Steps
	// Every rank machine logs the SIDs of the steps it executes itself. A
	// restored machine starts at its cut, so its log falls short of its
	// step count by exactly the cut's step.
	var (
		mu       sync.Mutex
		injected []*interp.Machine
	)
	base := Config{Ranks: 3, Seed: 1, FaultRank: 1, StepLimit: 64 * steps,
		ExtraBind: func(m *interp.Machine, rank int) error {
			m.RecordSIDs = true
			if rank == 1 {
				mu.Lock()
				injected = append(injected, m)
				mu.Unlock()
			}
			return nil
		}}
	const tests = 30
	c, err := NewCampaign(p, base, inject.UniformDst{TotalSteps: steps},
		campaign.WithTests(tests), campaign.WithSeed(4), campaign.WithParallelism(2), WithClean(clean),
		WithWorldAnalysis(func(_ int, _ interp.Fault, faulty *Result, _ inject.Outcome, _ Propagation) (any, error) {
			return faulty, nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	restorable := 0
	n := 0
	for wo, err := range c.Stream(context.Background()) {
		if err != nil {
			t.Fatal(err)
		}
		if wo.Fault.Step >= clean.Cuts[1][0] {
			restorable++
		}
		cfg := base
		cfg.Mode = interp.TraceFull
		cfg.Replay = clean.Recording
		cfg.Fault = &wo.Fault
		want, err := Run(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		faulty := wo.Analysis.(*Result)
		for r := range want.Ranks {
			got, exp := faulty.Ranks[r], want.Ranks[r]
			if got.FaultApplied != exp.FaultApplied || got.Trace.Status != exp.Trace.Status ||
				!reflect.DeepEqual(got.Trace.Output, exp.Trace.Output) || !reflect.DeepEqual(got.Trace.Recs, exp.Trace.Recs) {
				t.Fatalf("world %d (%v) rank %d: trace differs from a direct traced run (%d vs %d recs)",
					wo.Index, wo.Fault, r, got.Trace.Recs.Len(), exp.Trace.Recs.Len())
			}
		}
		if o := ClassifyWorld(want, base.FaultRank, func(r *Result) bool { return outputsEqual(clean, r) }); wo.Outcome != o {
			t.Fatalf("world %d (%v): outcome %v, direct run %v", wo.Index, wo.Fault, wo.Outcome, o)
		}
		if prop := ClassifyPropagation(clean, want, base.FaultRank); !reflect.DeepEqual(wo.Propagation, prop) {
			t.Fatalf("world %d (%v): propagation %v, direct run %v", wo.Index, wo.Fault, wo.Propagation, prop)
		}
		n++
	}
	if n != tests {
		t.Fatalf("analyzed %d worlds, want %d", n, tests)
	}
	if restorable == 0 {
		t.Fatal("fixture defect: no fault lands past the first cut")
	}
	inCall := 0
	for _, m := range injected {
		if at := m.Steps() - uint64(len(m.SIDLog())); at > 0 && pendingCallAt(&clean.Ranks[1].Trace.Recs, at) {
			inCall++
		}
	}
	if inCall == 0 {
		t.Fatal("no world ran restored from a cut inside a pending value-returning call")
	}
	t.Logf("%d of %d worlds ran restored inside a pending value-returning call", inCall, tests)
}
