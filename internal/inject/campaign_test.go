package inject

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"fliptracker/internal/campaign"
)

// TestGoldenV1Equivalence pins the v2 Campaign API to the exact Results the
// v1 Spec/Run API produced (captured from the pre-redesign implementation
// for the tolerance program): same seed, same fault stream, same outcomes,
// checkpointed and from scratch. Early stopping is disabled, so the counts
// must be byte-identical.
func TestGoldenV1Equivalence(t *testing.T) {
	p := buildToleranceProg(t)
	steps := totalSteps(t, p)
	if steps != 105 {
		t.Fatalf("tolerance program changed shape: %d steps, golden values assume 105", steps)
	}
	golden := []struct {
		seed int64
		want Result
	}{
		{1, Result{Tests: 400, Success: 146, Failed: 81, Crashed: 95, NotApplied: 78}},
		{20181111, Result{Tests: 400, Success: 164, Failed: 78, Crashed: 90, NotApplied: 68}},
	}
	for _, g := range golden {
		got := runBothTolerance(t, p, UniformDst{TotalSteps: steps}, campaign.WithTests(400), campaign.WithSeed(g.seed))
		if got != g.want {
			t.Errorf("seed %d: %+v, want v1 golden %+v", g.seed, got, g.want)
		}
	}
	// Memory population golden (UniformMem over the program's 8 data words).
	memGot := mustRun(t, p, UniformMem{TotalSteps: steps, FirstAddr: 1, LastAddr: p.MemWords},
		campaign.WithTests(200), campaign.WithSeed(7))
	memWant := Result{Tests: 200, Success: 191, Failed: 9}
	if memGot != memWant {
		t.Errorf("mem campaign: %+v, want v1 golden %+v", memGot, memWant)
	}
}

// TestStreamDeterministicOrder checks that Stream yields outcomes in fault-
// index order, that the sequence is identical across parallelism levels and
// to the from-scratch oracle, and that aggregating the stream reproduces
// Run's Result.
func TestStreamDeterministicOrder(t *testing.T) {
	p := buildToleranceProg(t)
	steps := totalSteps(t, p)
	collect := func(par int) ([]FaultOutcome, Result) {
		c := mustCampaign(t, p, UniformDst{TotalSteps: steps},
			campaign.WithTests(150), campaign.WithSeed(5), campaign.WithParallelism(par))
		var seq []FaultOutcome
		var res Result
		for fo, err := range c.Stream(context.Background()) {
			if err != nil {
				t.Fatal(err)
			}
			res.Count(fo.Outcome)
			seq = append(seq, fo)
		}
		return seq, res
	}
	ref := fromScratch(t, mustCampaign(t, p, UniformDst{TotalSteps: steps}, campaign.WithTests(150), campaign.WithSeed(5)))
	refRes := tally(ref)
	if len(ref) != 150 {
		t.Fatalf("stream yielded %d outcomes, want 150", len(ref))
	}
	for i, fo := range ref {
		if fo.Index != i {
			t.Fatalf("outcome %d has index %d: stream out of order", i, fo.Index)
		}
	}
	for _, par := range []int{1, 8} {
		seq, res := collect(par)
		if res != refRes {
			t.Fatalf("par=%d: aggregate %+v, want %+v", par, res, refRes)
		}
		for i := range ref {
			if seq[i] != ref[i] {
				t.Fatalf("par=%d: outcome %d = %+v, want %+v", par, i, seq[i], ref[i])
			}
		}
	}
	run := mustRun(t, p, UniformDst{TotalSteps: steps}, campaign.WithTests(150), campaign.WithSeed(5))
	if run != refRes {
		t.Fatalf("Run %+v disagrees with aggregated Stream %+v", run, refRes)
	}
}

// TestStreamBreakStopsWorkers checks that breaking out of a Stream loop
// stops the campaign without running it to completion and without leaking
// goroutines.
func TestStreamBreakStopsWorkers(t *testing.T) {
	p := buildToleranceProg(t)
	steps := totalSteps(t, p)
	before := runtime.NumGoroutine()
	c := mustCampaign(t, p, UniformDst{TotalSteps: steps}, campaign.WithTests(400), campaign.WithSeed(3))
	n := 0
	for fo, err := range c.Stream(context.Background()) {
		if err != nil {
			t.Fatal(err)
		}
		_ = fo
		if n++; n == 10 {
			break
		}
	}
	if n != 10 {
		t.Fatalf("consumed %d outcomes, want 10", n)
	}
	waitGoroutines(t, before)
}

// TestCancellationCheckpointed cancels a campaign mid-flight and requires a
// prompt ctx.Err(), a well-formed partial Result, and no leaked goroutines.
func TestCancellationCheckpointed(t *testing.T) {
	p := buildToleranceProg(t)
	steps := totalSteps(t, p)
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c := mustCampaign(t, p, UniformDst{TotalSteps: steps},
		campaign.WithTests(400), campaign.WithSeed(3),
		// Cancel from the progress callback after the 5th delivered
		// outcome: deterministically mid-campaign.
		campaign.WithProgress(func(done, total int) {
			if total != 400 {
				t.Errorf("progress total = %d, want 400", total)
			}
			if done == 5 {
				cancel()
			}
		}))
	start := time.Now()
	res, err := c.Run(ctx)
	elapsed := time.Since(start)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Tests == 0 || res.Tests >= 400 {
		t.Fatalf("partial result has %d tests, want mid-campaign", res.Tests)
	}
	if res.Success+res.Failed+res.Crashed+res.NotApplied != res.Tests {
		t.Fatalf("partial result malformed: %+v", res)
	}
	// "Promptly": the 400-test campaign must not have run to completion;
	// the tolerance program finishes a single injection in microseconds, so
	// even a heavily loaded box stays far under this bound after a 5-test
	// cancellation.
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	waitGoroutines(t, before)
}

func TestPreCancelledContext(t *testing.T) {
	p := buildToleranceProg(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := mustCampaign(t, p, UniformDst{TotalSteps: 10}, campaign.WithTests(50))
	res, err := c.Run(ctx)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Tests != 0 {
		t.Fatalf("pre-cancelled campaign ran %d tests", res.Tests)
	}
	// Stream on a cancelled context yields exactly one error pair.
	pairs := 0
	for _, serr := range c.Stream(ctx) {
		pairs++
		if serr != context.Canceled {
			t.Fatalf("stream err = %v, want context.Canceled", serr)
		}
	}
	if pairs != 1 {
		t.Fatalf("stream yielded %d pairs, want 1", pairs)
	}
}

// waitGoroutines polls until the goroutine count returns to (or below) the
// pre-campaign baseline, failing after a generous deadline. run waits for
// its workers before returning, so this converges immediately in practice;
// the poll absorbs unrelated runtime goroutines winding down.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d now, %d before campaign", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestEarlyStopFewerTestsSameRate checks the sequential stopping rule: on a
// high-success-rate population sized with the paper's worst-case rule, early
// stopping runs measurably fewer injections while reporting a success rate
// within the configured margin of the fixed-size campaign's.
func TestEarlyStopFewerTestsSameRate(t *testing.T) {
	p := buildToleranceProg(t)
	steps := totalSteps(t, p)
	// Memory faults over the program's data words mask ~95% of the time —
	// far from the worst-case p = 0.5 the fixed sizing assumes.
	targets := UniformMem{TotalSteps: steps, FirstAddr: 1, LastAddr: p.MemWords}
	const tests, margin = 400, 0.03
	fixed := mustRun(t, p, targets, campaign.WithTests(tests), campaign.WithSeed(7))
	early := mustRun(t, p, targets, campaign.WithTests(tests), campaign.WithSeed(7), campaign.WithEarlyStop(0.95, margin))
	if early.Tests >= fixed.Tests {
		t.Fatalf("early stop ran %d of %d tests, want fewer", early.Tests, fixed.Tests)
	}
	if early.Tests < EarlyStopMinTests {
		t.Fatalf("early stop ran %d tests, below the %d minimum", early.Tests, EarlyStopMinTests)
	}
	if d := math.Abs(early.SuccessRate() - fixed.SuccessRate()); d > margin {
		t.Fatalf("early-stop rate %.3f vs fixed %.3f differs by %.3f > margin %.3f",
			early.SuccessRate(), fixed.SuccessRate(), d, margin)
	}
	// The stop point is part of the deterministic contract: same seed, same
	// prefix, same decision — so Stream under early stopping is reproducible
	// too.
	a := mustRun(t, p, targets, campaign.WithTests(tests), campaign.WithSeed(7), campaign.WithEarlyStop(0.95, margin), campaign.WithParallelism(1))
	b := mustRun(t, p, targets, campaign.WithTests(tests), campaign.WithSeed(7), campaign.WithEarlyStop(0.95, margin), campaign.WithParallelism(8))
	if a != b {
		t.Fatalf("early-stop results depend on parallelism: %+v vs %+v", a, b)
	}
}

// TestZeroPopulationGuards is the regression test for the picker panics:
// zero-sized populations must yield never-firing faults from Pick and be
// rejected at campaign construction.
func TestZeroPopulationGuards(t *testing.T) {
	p := buildToleranceProg(t)
	// Pick must not panic (rand.Int63n(0) did, before the guards) and must
	// aim at a step no run reaches.
	r := rand.New(rand.NewSource(1))
	for _, tc := range []struct {
		name   string
		picker TargetPicker
	}{
		{"UniformDst zero steps", UniformDst{TotalSteps: 0}},
		{"StepRangeDst empty range", StepRangeDst{Lo: 5, Hi: 5}},
		{"StepRangeDst inverted range", StepRangeDst{Lo: 9, Hi: 1}},
		{"UniformMem zero steps", UniformMem{TotalSteps: 0, FirstAddr: 1, LastAddr: 9}},
		{"UniformMem empty range", UniformMem{TotalSteps: 100, FirstAddr: 5, LastAddr: 5}},
		{"UniformMem inverted range", UniformMem{TotalSteps: 100, FirstAddr: 9, LastAddr: 1}},
		{"MemAtStep no addrs", MemAtStep{Step: 10}},
		{"Mixed empty", Mixed{}},
	} {
		f := tc.picker.Pick(r)
		if f.Step != neverStep {
			t.Errorf("%s: Pick step = %d, want never-firing", tc.name, f.Step)
		}
		v, ok := tc.picker.(Validator)
		if !ok {
			t.Errorf("%s: picker does not implement Validator", tc.name)
			continue
		}
		if v.Validate() == nil {
			t.Errorf("%s: Validate accepted an empty population", tc.name)
		}
		if _, err := NewCampaign(makeMachine(p), verifyNear10, tc.picker, campaign.WithTests(10)); err == nil {
			t.Errorf("%s: NewCampaign accepted an empty population", tc.name)
		}
	}
	// A never-firing fault classifies as NotApplied end to end.
	o, err := RunOne(makeMachine(p), verifyNear10, UniformDst{TotalSteps: 0}.Pick(r))
	if err != nil {
		t.Fatal(err)
	}
	if o != NotApplied {
		t.Errorf("never-firing fault outcome = %v, want not-applied", o)
	}
	// Mixed validation recurses into sub-populations.
	bad := Mixed{Pickers: []TargetPicker{UniformDst{TotalSteps: 10}, UniformDst{TotalSteps: 0}}}
	if bad.Validate() == nil {
		t.Error("Mixed.Validate accepted an empty sub-population")
	}
}
