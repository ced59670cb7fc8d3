package inject

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fliptracker/internal/campaign"
	"fliptracker/internal/interp"
	"fliptracker/internal/ir"
	"fliptracker/internal/trace"
)

// cleanFullTrace records the tolerance program's fault-free full trace.
func cleanFullTrace(t *testing.T, p *ir.Program) *trace.Trace {
	t.Helper()
	m, err := makeMachine(p)()
	if err != nil {
		t.Fatal(err)
	}
	m.Mode = interp.TraceFull
	tr, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if tr.Status != trace.RunOK {
		t.Fatalf("clean run status %v", tr.Status)
	}
	return tr
}

// directFaultyTrace records the reference faulty trace: a from-step-0
// TraceFull run with the fault.
func directFaultyTrace(t *testing.T, p *ir.Program, f interp.Fault) *trace.Trace {
	t.Helper()
	m, err := makeMachine(p)()
	if err != nil {
		t.Fatal(err)
	}
	m.Mode = interp.TraceFull
	m.Fault = &f
	tr, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestAnalyzedCampaignTracesMatchDirectRuns pins the stitching guarantee:
// at every parallelism, the faulty trace an analyzed campaign hands to its
// TraceAnalyzer is byte-identical to a from-step-0 TraceFull run of the
// same fault, although the pre-checkpoint prefix is copied from the clean
// trace instead of being re-recorded.
func TestAnalyzedCampaignTracesMatchDirectRuns(t *testing.T) {
	p := buildToleranceProg(t)
	steps := totalSteps(t, p)
	clean := cleanFullTrace(t, p)
	const tests = 60
	for _, par := range []int{1, 4} {
		analyzed := 0
		c, err := NewCampaign(makeMachine(p), verifyNear10, UniformDst{TotalSteps: steps},
			campaign.WithTests(tests), campaign.WithSeed(9), campaign.WithParallelism(par),
			WithAnalysis(clean, func(i int, f interp.Fault, faulty *trace.Trace, o Outcome) (any, error) {
				return faulty, nil
			}))
		if err != nil {
			t.Fatal(err)
		}
		for fo, err := range c.Stream(context.Background()) {
			if err != nil {
				t.Fatal(err)
			}
			faulty := fo.Analysis.(*trace.Trace)
			want := directFaultyTrace(t, p, fo.Fault)
			if faulty.Status != want.Status || faulty.Steps != want.Steps {
				t.Fatalf("par=%d fault %d: status/steps %v/%d, want %v/%d",
					par, fo.Index, faulty.Status, faulty.Steps, want.Status, want.Steps)
			}
			if !reflect.DeepEqual(faulty.Recs, want.Recs) {
				t.Fatalf("par=%d fault %d (%v): stitched records differ from direct traced run (%d vs %d recs)",
					par, fo.Index, fo.Fault, faulty.Recs.Len(), want.Recs.Len())
			}
			if !reflect.DeepEqual(faulty.Output, want.Output) {
				t.Fatalf("par=%d fault %d: outputs differ", par, fo.Index)
			}
			analyzed++
		}
		if analyzed != tests {
			t.Fatalf("par=%d: analyzed %d faults, want %d", par, analyzed, tests)
		}
	}
}

// TestAnalyzedCampaignOutcomesMatchUntraced checks that turning analysis on
// does not perturb the campaign's outcomes: same seed, same Result as the
// untraced campaign and as the untraced from-scratch oracle.
func TestAnalyzedCampaignOutcomesMatchUntraced(t *testing.T) {
	p := buildToleranceProg(t)
	steps := totalSteps(t, p)
	clean := cleanFullTrace(t, p)
	plain := runBothTolerance(t, p, UniformDst{TotalSteps: steps}, campaign.WithTests(200), campaign.WithSeed(3))
	c, err := NewCampaign(makeMachine(p), verifyNear10, UniformDst{TotalSteps: steps},
		campaign.WithTests(200), campaign.WithSeed(3),
		WithAnalysis(clean, func(i int, f interp.Fault, faulty *trace.Trace, o Outcome) (any, error) {
			return nil, nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	traced, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if traced != plain {
		t.Errorf("analyzed campaign result %+v, untraced %+v", traced, plain)
	}
}

// TestAnalyzerErrorAbortsCampaign checks that a failing analysis hook stops
// the campaign with its error.
func TestAnalyzerErrorAbortsCampaign(t *testing.T) {
	p := buildToleranceProg(t)
	steps := totalSteps(t, p)
	clean := cleanFullTrace(t, p)
	boom := errors.New("boom")
	c, err := NewCampaign(makeMachine(p), verifyNear10, UniformDst{TotalSteps: steps},
		campaign.WithTests(50), campaign.WithSeed(3),
		WithAnalysis(clean, func(i int, f interp.Fault, faulty *trace.Trace, o Outcome) (any, error) {
			if i == 7 {
				return nil, boom
			}
			return i, nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Run(context.Background())
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the analysis error", err)
	}
}

// TestAnalyzedCampaignNeedsCleanTrace checks construction-time validation.
func TestAnalyzedCampaignNeedsCleanTrace(t *testing.T) {
	p := buildToleranceProg(t)
	_, err := NewCampaign(makeMachine(p), verifyNear10, UniformDst{TotalSteps: 10},
		campaign.WithTests(10),
		WithAnalysis(nil, func(i int, f interp.Fault, faulty *trace.Trace, o Outcome) (any, error) { return nil, nil }))
	if err == nil {
		t.Fatal("analyzed campaign without a clean trace should fail to build")
	}
	// A markers-only trace (no records) is rejected too.
	_, err = NewCampaign(makeMachine(p), verifyNear10, UniformDst{TotalSteps: 10},
		campaign.WithTests(10),
		WithAnalysis(&trace.Trace{}, func(i int, f interp.Fault, faulty *trace.Trace, o Outcome) (any, error) { return nil, nil }))
	if err == nil {
		t.Fatal("analyzed campaign with an empty clean trace should fail to build")
	}
}

// TestFaultListReplaysInOrder pins the IndexedPicker contract: a FaultList
// campaign injects exactly the listed faults in list order, its Stream
// yields them at matching indexes, and re-running the same campaign redraws
// the identical stream (the picker is stateless).
func TestFaultListReplaysInOrder(t *testing.T) {
	p := buildToleranceProg(t)
	steps := totalSteps(t, p)
	var faults []interp.Fault
	for i := 0; i < 20; i++ {
		faults = append(faults, interp.Fault{
			Step: uint64(i) * steps / 20,
			Bit:  uint8(i % 64),
			Kind: interp.FaultDst,
		})
	}
	c := mustCampaign(t, p, FaultList{Faults: faults}, campaign.WithTests(len(faults)), campaign.WithParallelism(4))
	for run := 0; run < 2; run++ {
		n := 0
		for fo, err := range c.Stream(context.Background()) {
			if err != nil {
				t.Fatal(err)
			}
			if fo.Fault != faults[fo.Index] {
				t.Fatalf("run %d: fault %d is %v, want %v", run, fo.Index, fo.Fault, faults[fo.Index])
			}
			n++
		}
		if n != len(faults) {
			t.Fatalf("run %d: streamed %d outcomes, want %d", run, n, len(faults))
		}
	}
	// Empty lists are rejected at construction and degrade in Pick.
	if _, err := NewCampaign(makeMachine(p), verifyNear10, FaultList{}, campaign.WithTests(5)); err == nil {
		t.Fatal("empty FaultList should fail campaign validation")
	}
}

// TestAnalyzedCampaignCancellation mirrors the untraced cancellation
// contract for analyzed campaigns: prompt ctx.Err, well-formed partial
// result, no leaked goroutines.
func TestAnalyzedCampaignCancellation(t *testing.T) {
	p := buildToleranceProg(t)
	steps := totalSteps(t, p)
	clean := cleanFullTrace(t, p)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c, err := NewCampaign(makeMachine(p), verifyNear10, UniformDst{TotalSteps: steps},
		campaign.WithTests(300), campaign.WithSeed(3),
		WithAnalysis(clean, func(i int, f interp.Fault, faulty *trace.Trace, o Outcome) (any, error) {
			return fmt.Sprintf("fa-%d", i), nil
		}),
		campaign.WithProgress(func(done, total int) {
			if done == 5 {
				cancel()
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Tests == 0 || res.Tests >= 300 {
		t.Fatalf("partial result has %d tests, want mid-campaign", res.Tests)
	}
}

// TestAnalyzedCampaignBoundsInFlightTraces pins the reorder-buffer memory
// bound: when one early fault's analysis is slow, the other workers must
// not race ahead and pile the whole campaign's faulty traces into the
// pending buffer — at most 2*parallelism injections may be completed but
// unemitted at any time.
func TestAnalyzedCampaignBoundsInFlightTraces(t *testing.T) {
	p := buildToleranceProg(t)
	steps := totalSteps(t, p)
	clean := cleanFullTrace(t, p)
	const (
		tests = 80
		par   = 4
	)
	var completed atomic.Int64
	c, err := NewCampaign(makeMachine(p), verifyNear10, UniformDst{TotalSteps: steps},
		campaign.WithTests(tests), campaign.WithSeed(11), campaign.WithParallelism(par),
		WithAnalysis(clean, func(i int, f interp.Fault, faulty *trace.Trace, o Outcome) (any, error) {
			if i == 0 {
				time.Sleep(200 * time.Millisecond) // stall the head of the stream
			}
			completed.Add(1)
			return i, nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	emitted := 0
	maxGap := int64(0)
	for fo, err := range c.Stream(context.Background()) {
		if err != nil {
			t.Fatal(err)
		}
		if fo.Index != emitted {
			t.Fatalf("out of order: got index %d, want %d", fo.Index, emitted)
		}
		emitted++
		if gap := completed.Load() - int64(emitted); gap > maxGap {
			maxGap = gap
		}
	}
	if emitted != tests {
		t.Fatalf("emitted %d outcomes, want %d", emitted, tests)
	}
	// Every completed-but-unemitted injection holds a window slot, so the
	// gap is bounded by the window capacity (2*parallelism).
	if maxGap > 2*par {
		t.Errorf("in-flight completed analyses peaked at %d, want <= %d (window bound)", maxGap, 2*par)
	}
	if maxGap == 0 {
		t.Log("note: workers never ran ahead of emission (slow box?); bound not exercised")
	}
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

// TestAnalyzedCampaignNonMonotonicTrace covers clean-prefix stitching on a
// program whose record steps are not monotonic: a value-returning call's
// OpRet record is stamped with the call-site's step but emitted at return
// time, after the callee's higher-step records. Its analyzed faults must
// still run restored from checkpoints, some of them taken inside a call
// awaiting its return, and every stitched trace must be byte-identical to
// a direct traced run.
func TestAnalyzedCampaignNonMonotonicTrace(t *testing.T) {
	p := ir.NewProgram("callret")
	g := p.AllocGlobal("g", 4, ir.F64)
	square := p.NewFunc("square", 1)
	x := ir.Reg(0)
	square.Ret(square.FMul(x, x))
	square.Done()
	b := p.NewFunc("main", 0)
	acc := b.ConstF(0)
	b.ForI(0, 4, func(i ir.Reg) {
		b.StoreG(g, i, b.Call("square", b.SIToFP(b.AddI(i, 1))))
		b.BinTo(ir.OpFAdd, acc, acc, b.LoadG(g, i))
	})
	b.Emit(ir.F64, acc)
	b.RetVoid()
	b.Done()
	if err := p.Seal(); err != nil {
		t.Fatal(err)
	}

	clean := cleanFullTrace(t, p)
	// Every machine logs the SIDs of the steps it executes itself. A
	// restored machine starts at its checkpoint, so its log falls short of
	// its step count by exactly the checkpoint's step.
	var (
		mu       sync.Mutex
		machines []*interp.Machine
	)
	mk := func() (*interp.Machine, error) {
		m, err := makeMachine(p)()
		if err == nil {
			m.RecordSIDs = true
			mu.Lock()
			machines = append(machines, m)
			mu.Unlock()
		}
		return m, err
	}
	verify := func(tr *trace.Trace) bool { return len(tr.Output) == 1 }
	const tests = 30
	c, err := NewCampaign(mk, verify, UniformDst{TotalSteps: totalSteps(t, p)},
		campaign.WithTests(tests), campaign.WithSeed(4), campaign.WithParallelism(2),
		WithAnalysis(clean, func(i int, f interp.Fault, faulty *trace.Trace, o Outcome) (any, error) {
			return faulty, nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for fo, err := range c.Stream(context.Background()) {
		if err != nil {
			t.Fatal(err)
		}
		faulty := fo.Analysis.(*trace.Trace)
		want := directFaultyTrace(t, p, fo.Fault)
		if !reflect.DeepEqual(faulty.Recs, want.Recs) {
			t.Fatalf("fault %d (%v): trace differs from direct traced run (%d vs %d recs)",
				fo.Index, fo.Fault, faulty.Recs.Len(), want.Recs.Len())
		}
		n++
	}
	if n != tests {
		t.Fatalf("analyzed %d faults, want %d", n, tests)
	}
	inCall := 0
	for _, m := range machines {
		if at := m.Steps() - uint64(len(m.SIDLog())); at > 0 && pendingCallAt(&clean.Recs, at) {
			inCall++
		}
	}
	if inCall == 0 {
		t.Fatal("no fault ran restored from a checkpoint inside a pending value-returning call")
	}
	t.Logf("%d of %d faults ran restored inside a pending value-returning call", inCall, tests)
}
