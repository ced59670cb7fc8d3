package inject

import (
	"context"
	"testing"

	"fliptracker/internal/campaign"
	"fliptracker/internal/interp"
	"fliptracker/internal/ir"
	"fliptracker/internal/trace"
)

// fromScratch is the campaign's test oracle: every drawn fault run in index
// order through the per-fault runner with no checkpoint, so each injection
// replays from dynamic step 0.
func fromScratch(t *testing.T, c *Campaign) []FaultOutcome {
	t.Helper()
	faults := c.Faults()
	out := make([]FaultOutcome, len(faults))
	for i, f := range faults {
		fo, err := c.runFault(i, f, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = fo
	}
	return out
}

// tally aggregates outcomes the way Run does.
func tally(fos []FaultOutcome) Result {
	var r Result
	for _, fo := range fos {
		r.Count(fo.Outcome)
	}
	return r
}

// runBoth executes the campaign and requires the Result of the from-scratch
// oracle — the core guarantee of checkpointing.
func runBoth(t *testing.T, mk func() (*interp.Machine, error), verify func(*trace.Trace) bool, targets TargetPicker, opts ...Option) Result {
	t.Helper()
	c, err := NewCampaign(mk, verify, targets, opts...)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if want := tally(fromScratch(t, c)); ck != want {
		t.Fatalf("checkpointed %+v vs from-scratch %+v", ck, want)
	}
	return ck
}

func runBothTolerance(t *testing.T, p *ir.Program, targets TargetPicker, opts ...Option) Result {
	t.Helper()
	return runBoth(t, makeMachine(p), verifyNear10, targets, opts...)
}

func TestCheckpointedMatchesDirectUniformDst(t *testing.T) {
	p := buildToleranceProg(t)
	steps := totalSteps(t, p)
	res := runBothTolerance(t, p, UniformDst{TotalSteps: steps}, campaign.WithTests(400), campaign.WithSeed(1))
	if res.Success == 0 || res.Failed == 0 {
		t.Errorf("expected mixed outcomes: %+v", res)
	}
}

func TestCheckpointedMatchesDirectAcrossSeeds(t *testing.T) {
	p := buildToleranceProg(t)
	steps := totalSteps(t, p)
	for seed := int64(1); seed <= 5; seed++ {
		runBothTolerance(t, p, UniformDst{TotalSteps: steps}, campaign.WithTests(120), campaign.WithSeed(seed))
	}
}

func TestCheckpointedMatchesDirectMemAtStep(t *testing.T) {
	// All faults land at one step: the adaptive placement collapses to a
	// single checkpoint that every run fans out from.
	p := buildToleranceProg(t)
	a, _ := p.GlobalByName("a")
	addrs := make([]int64, a.Words)
	for i := range addrs {
		addrs[i] = a.Addr + int64(i)
	}
	steps := totalSteps(t, p)
	runBothTolerance(t, p, MemAtStep{Step: steps / 2, Addrs: addrs}, campaign.WithTests(200), campaign.WithSeed(7))
}

// withMaxCheckpoints overrides the planner's DefaultMaxCheckpoints backstop.
func withMaxCheckpoints(n int) Option {
	return engineOption(func(c *Campaign) { c.maxCheckpoints = n })
}

func TestCheckpointedCheckpointBudgets(t *testing.T) {
	p := buildToleranceProg(t)
	steps := totalSteps(t, p)
	targets := UniformDst{TotalSteps: steps}
	want := tally(fromScratch(t, mustCampaign(t, p, targets, campaign.WithTests(150), campaign.WithSeed(3))))
	for _, budget := range []int{1, 2, 16, 10_000} {
		got := mustRun(t, p, targets, campaign.WithTests(150), campaign.WithSeed(3), withMaxCheckpoints(budget))
		if got != want {
			t.Errorf("budget %d: %+v, want %+v", budget, got, want)
		}
	}
}

func TestCheckpointedFaultBeyondProgramEnd(t *testing.T) {
	// Faults past the program end never fire, checkpointed or not; the
	// checkpoint forward pass terminates before reaching them.
	p := buildToleranceProg(t)
	steps := totalSteps(t, p)
	res := runBothTolerance(t, p, StepRangeDst{Lo: steps - 2, Hi: steps + 50}, campaign.WithTests(60), campaign.WithSeed(11))
	if res.NotApplied == 0 {
		t.Errorf("expected not-applied faults beyond program end: %+v", res)
	}
}

func TestCheckpointedSerialMatchesParallel(t *testing.T) {
	p := buildToleranceProg(t)
	steps := totalSteps(t, p)
	targets := UniformDst{TotalSteps: steps}
	one := mustRun(t, p, targets, campaign.WithTests(100), campaign.WithSeed(42), campaign.WithParallelism(1))
	eight := mustRun(t, p, targets, campaign.WithTests(100), campaign.WithSeed(42), campaign.WithParallelism(8))
	if one != eight {
		t.Errorf("checkpointed results depend on parallelism: %+v vs %+v", one, eight)
	}
}

func TestCheckpointedFallbackFreshProgramPerMachine(t *testing.T) {
	// A MakeMachine that rebuilds its program per call defeats snapshot
	// sharing (snapshots restore only into the same sealed instance); the
	// campaign must fall back to from-scratch replays and still match.
	steps := totalSteps(t, buildToleranceProg(t))
	mkFresh := func() (*interp.Machine, error) {
		p, err := newToleranceProg()
		if err != nil {
			return nil, err
		}
		m, err := interp.NewMachine(p)
		if err != nil {
			return nil, err
		}
		if err := m.BindStandardHosts(); err != nil {
			return nil, err
		}
		return m, nil
	}
	runBoth(t, mkFresh, verifyNear10, UniformDst{TotalSteps: steps}, campaign.WithTests(50), campaign.WithSeed(9))
}
