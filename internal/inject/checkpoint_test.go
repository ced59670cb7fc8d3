package inject

import (
	"context"
	"testing"

	"fliptracker/internal/interp"
	"fliptracker/internal/ir"
	"fliptracker/internal/trace"
)

// runBoth executes the same campaign under both schedulers and requires
// identical results — the core guarantee of the checkpointed scheduler.
func runBoth(t *testing.T, mk func() (*interp.Machine, error), verify func(*trace.Trace) bool, targets TargetPicker, opts ...Option) Result {
	t.Helper()
	run := func(k SchedulerKind) Result {
		c, err := NewCampaign(mk, verify, targets, append(opts, WithScheduler(k))...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	direct := run(ScheduleDirect)
	ck := run(ScheduleCheckpointed)
	if direct != ck {
		t.Fatalf("schedulers disagree: direct %+v vs checkpointed %+v", direct, ck)
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
	res := runBothTolerance(t, p, UniformDst{TotalSteps: steps}, WithTests(400), WithSeed(1))
	if res.Success == 0 || res.Failed == 0 {
		t.Errorf("expected mixed outcomes: %+v", res)
	}
}

func TestCheckpointedMatchesDirectAcrossSeeds(t *testing.T) {
	p := buildToleranceProg(t)
	steps := totalSteps(t, p)
	for seed := int64(1); seed <= 5; seed++ {
		runBothTolerance(t, p, UniformDst{TotalSteps: steps}, WithTests(120), WithSeed(seed))
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
	runBothTolerance(t, p, MemAtStep{Step: steps / 2, Addrs: addrs}, WithTests(200), WithSeed(7))
}

// withMaxCheckpoints overrides the planner's DefaultMaxCheckpoints backstop.
func withMaxCheckpoints(n int) Option { return func(c *Campaign) { c.maxCheckpoints = n } }

func TestCheckpointedCheckpointBudgets(t *testing.T) {
	p := buildToleranceProg(t)
	steps := totalSteps(t, p)
	targets := UniformDst{TotalSteps: steps}
	want := mustRun(t, p, targets, WithTests(150), WithSeed(3), WithScheduler(ScheduleDirect))
	for _, budget := range []int{1, 2, 16, 10_000} {
		got := mustRun(t, p, targets, WithTests(150), WithSeed(3),
			WithScheduler(ScheduleCheckpointed), withMaxCheckpoints(budget))
		if got != want {
			t.Errorf("budget %d: %+v, want %+v", budget, got, want)
		}
	}
}

func TestCheckpointedFaultBeyondProgramEnd(t *testing.T) {
	// Faults past the program end never fire under either scheduler; the
	// checkpointed base run terminates before reaching them.
	p := buildToleranceProg(t)
	steps := totalSteps(t, p)
	res := runBothTolerance(t, p, StepRangeDst{Lo: steps - 2, Hi: steps + 50}, WithTests(60), WithSeed(11))
	if res.NotApplied == 0 {
		t.Errorf("expected not-applied faults beyond program end: %+v", res)
	}
}

func TestCheckpointedSerialMatchesParallel(t *testing.T) {
	p := buildToleranceProg(t)
	steps := totalSteps(t, p)
	targets := UniformDst{TotalSteps: steps}
	one := mustRun(t, p, targets, WithTests(100), WithSeed(42), WithParallelism(1))
	eight := mustRun(t, p, targets, WithTests(100), WithSeed(42), WithParallelism(8))
	if one != eight {
		t.Errorf("checkpointed results depend on parallelism: %+v vs %+v", one, eight)
	}
}

func TestCheckpointedFallbackFreshProgramPerMachine(t *testing.T) {
	// A MakeMachine that rebuilds its program per call defeats snapshot
	// sharing (snapshots restore only into the same sealed instance); the
	// scheduler must fall back to from-scratch replays and still match.
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
	runBoth(t, mkFresh, verifyNear10, UniformDst{TotalSteps: steps}, WithTests(50), WithSeed(9))
}

func TestSchedulerKindStrings(t *testing.T) {
	if ScheduleCheckpointed.String() != "checkpointed" || ScheduleDirect.String() != "direct" {
		t.Errorf("scheduler names: %v %v", ScheduleCheckpointed, ScheduleDirect)
	}
	if SchedulerKind(9).String() == "" {
		t.Error("unknown scheduler should stringify")
	}
	p := buildToleranceProg(t)
	c := mustCampaign(t, p, UniformDst{TotalSteps: 10}, WithTests(5))
	if c.scheduler != ScheduleCheckpointed {
		t.Error("campaigns must default to the checkpointed scheduler")
	}
}
