package mpi

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"fliptracker/internal/campaign"
	"fliptracker/internal/inject"
	"fliptracker/internal/interp"
	"fliptracker/internal/ir"
	"fliptracker/internal/trace"
)

// buildCampaignProg is the campaign-test workload: every rank fills a small
// vector from its rank number, repeatedly allreduces it, sends a derived
// value around the ring, and emits both the reduced sum and the received
// value. Faults on one rank can stay contained (dead stores), corrupt the
// world's sums (propagation through the collective), or crash the rank.
func buildCampaignProg(t testing.TB) *ir.Program {
	t.Helper()
	p := ir.NewProgram("campaignring")
	DeclareHosts(p)
	vec := p.AllocGlobal("vec", 4, ir.F64)
	buf := p.AllocGlobal("buf", 1, ir.F64)
	b := p.NewFunc("main", 0)
	rank := b.Host(HostRank, 0, true)
	size := b.Host(HostSize, 0, true)
	rf := b.SIToFP(rank)
	for i := int64(0); i < 4; i++ {
		b.StoreGI(vec, i, b.FMul(rf, b.ConstF(float64(i)+0.5)))
	}
	addr := b.ConstI(vec.Addr)
	four := b.ConstI(4)
	// Three reduction rounds so corruption has collectives to cross.
	b.Host(HostAllreduceSum, 2, false, addr, four)
	b.Host(HostAllreduceSum, 2, false, addr, four)
	b.Host(HostAllreduceSum, 2, false, addr, four)
	// Ring exchange of the first reduced element.
	b.StoreGI(buf, 0, b.LoadGI(vec, 0))
	dst := b.SRem(b.Add(rank, b.ConstI(1)), size)
	src := b.SRem(b.Add(rank, b.Sub(size, b.ConstI(1))), size)
	baddr := b.ConstI(buf.Addr)
	one := b.ConstI(1)
	b.Host(HostSend, 3, false, dst, baddr, one)
	b.Host(HostRecv, 3, false, src, baddr, one)
	b.Emit(ir.F64, b.LoadGI(vec, 1))
	b.Emit(ir.F64, b.LoadGI(buf, 0))
	b.RetVoid()
	b.Done()
	if err := p.Seal(); err != nil {
		t.Fatal(err)
	}
	return p
}

func testCampaign(t testing.TB, tests int, opts ...Option) *Campaign {
	t.Helper()
	p := buildCampaignProg(t)
	steps := uint64(0)
	{
		probe, err := Run(p, Config{Ranks: 3, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		steps = probe.Ranks[1].Trace.Steps
	}
	// A tight StepLimit turns bit-flipped loop bounds into prompt hangs
	// instead of 200M-step crawls.
	c, err := NewCampaign(p, Config{Ranks: 3, Seed: 1, FaultRank: 1, StepLimit: 64 * steps},
		inject.UniformDst{TotalSteps: steps},
		append([]Option{campaign.WithTests(tests), campaign.WithSeed(7)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func digestOutcome(wo WorldOutcome) string {
	return fmt.Sprintf("#%d %s -> %s %s", wo.Index, wo.Fault.String(), wo.Outcome, wo.Propagation)
}

// TestCampaignDeterministicAcrossParallelism is the engine's core contract:
// for a fixed seed, the per-world outcome stream — §II-A classification and
// propagation included — is identical at any parallelism, in fault-index
// order, even though faults crash some worlds (the deterministic-abort paths
// of the world substrate).
func TestCampaignDeterministicAcrossParallelism(t *testing.T) {
	const tests = 24
	collect := func(par int) []string {
		c := testCampaign(t, tests, campaign.WithParallelism(par))
		var out []string
		for wo, err := range c.Stream(context.Background()) {
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, digestOutcome(wo))
		}
		return out
	}
	ref := collect(1)
	if len(ref) != tests {
		t.Fatalf("streamed %d worlds, want %d", len(ref), tests)
	}
	for _, par := range []int{2, 4} {
		got := collect(par)
		for i := range ref {
			if got[i] != ref[i] {
				t.Errorf("parallelism %d world %d:\ngot:  %s\nwant: %s", par, i, got[i], ref[i])
			}
		}
	}
	// The stream must exercise more than one outcome/propagation class to
	// be a meaningful determinism check.
	classes := map[string]bool{}
	for _, d := range ref {
		classes[d] = true
	}
	if len(classes) < 3 {
		t.Fatalf("fault stream too uniform for a determinism check: %v", ref)
	}
}

// TestCampaignRunMatchesStream pins Run's aggregate to a hand-count of the
// streamed outcomes, and re-running the same campaign to identical results.
func TestCampaignRunMatchesStream(t *testing.T) {
	c := testCampaign(t, 16)
	ctx := context.Background()
	var want inject.Result
	propClasses := map[PropagationClass]int{}
	for wo, err := range c.Stream(ctx) {
		if err != nil {
			t.Fatal(err)
		}
		want.Count(wo.Outcome)
		propClasses[wo.Propagation.Class]++
	}
	got, err := c.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("Run = %+v, Stream count = %+v", got, want)
	}
	if got.Tests != 16 {
		t.Fatalf("tests = %d, want 16", got.Tests)
	}
	// Crashed worlds and world-crash propagation must agree.
	if propClasses[WorldCrash] != got.Crashed {
		t.Errorf("world-crash count %d != crashed outcomes %d", propClasses[WorldCrash], got.Crashed)
	}
}

// dropPayload is the analysis payload of the drop-traces test; DropTrace
// implements campaign.TraceDropper.
type dropPayload struct {
	index   int
	dropped bool
	recs    int
}

func (p *dropPayload) DropTrace() { p.dropped = true }

// TestCampaignAnalyzedPayloadAndDropTraces checks that the analysis hook
// runs per world with traced ranks, payloads arrive in order, and
// WithDropTraces invokes the payload's DropTrace hook.
func TestCampaignAnalyzedPayloadAndDropTraces(t *testing.T) {
	analyze := func(index int, _ interp.Fault, faulty *Result, _ inject.Outcome, _ Propagation) (any, error) {
		recs := 0
		for _, rr := range faulty.Ranks {
			recs += rr.Trace.Recs.Len()
		}
		return &dropPayload{index: index, recs: recs}, nil
	}
	c := testCampaign(t, 6, campaign.WithParallelism(2), WithWorldAnalysis(analyze), campaign.WithDropTraces())
	next := 0
	for wo, err := range c.Stream(context.Background()) {
		if err != nil {
			t.Fatal(err)
		}
		pl, ok := wo.Analysis.(*dropPayload)
		if !ok {
			t.Fatalf("payload type %T", wo.Analysis)
		}
		if pl.index != next || wo.Index != next {
			t.Fatalf("payload index %d / world %d, want %d", pl.index, wo.Index, next)
		}
		if pl.recs == 0 {
			t.Error("analyzed world had no trace records")
		}
		if !pl.dropped {
			t.Error("DropTrace was not invoked")
		}
		next++
	}
	if next != 6 {
		t.Fatalf("streamed %d worlds, want 6", next)
	}
}

// TestCampaignCancellation: cancelling mid-stream stops the campaign with
// ctx.Err() and leaves no workers running (the -race build would flag
// leaked worlds touching test state).
func TestCampaignCancellation(t *testing.T) {
	c := testCampaign(t, 32, campaign.WithParallelism(2))
	ctx, cancel := context.WithCancel(context.Background())
	seen := 0
	var finalErr error
	for wo, err := range c.Stream(ctx) {
		if err != nil {
			finalErr = err
			break
		}
		_ = wo
		seen++
		if seen == 3 {
			cancel()
		}
	}
	cancel()
	if finalErr != context.Canceled {
		t.Fatalf("final error = %v, want context.Canceled", finalErr)
	}
	if seen < 3 || seen >= 32 {
		t.Fatalf("saw %d worlds before cancellation", seen)
	}
}

// TestCampaignValidation covers the construction error paths.
func TestCampaignValidation(t *testing.T) {
	p := buildCampaignProg(t)
	targets := inject.UniformDst{TotalSteps: 100}
	base := Config{Ranks: 3, Seed: 1}
	if _, err := NewCampaign(p, base, targets); err == nil {
		t.Error("missing WithTests should fail")
	}
	if _, err := NewCampaign(p, base, nil, campaign.WithTests(5)); err == nil {
		t.Error("tests without targets should fail")
	}
	if _, err := NewCampaign(p, Config{Ranks: 3, FaultRank: 3}, targets, campaign.WithTests(1)); err == nil {
		t.Error("fault rank out of range should fail")
	}
	if _, err := NewCampaign(p, Config{Ranks: 3, FaultRank: -1}, targets, campaign.WithTests(1)); err == nil {
		t.Error("negative fault rank should fail")
	}
	f := interp.Fault{Step: 1}
	if _, err := NewCampaign(p, Config{Ranks: 3, Fault: &f}, targets, campaign.WithTests(1)); err == nil {
		t.Error("base config with Fault should fail")
	}
	if _, err := NewCampaign(p, base, inject.UniformDst{}, campaign.WithTests(1)); err == nil {
		t.Error("empty population should fail Validate")
	}
	if _, err := NewCampaign(p, base, targets, campaign.WithTests(1), campaign.WithDropTraces()); err == nil {
		t.Error("WithDropTraces without analysis should fail")
	}
	if _, err := NewCampaign(p, base, nil); err == nil {
		t.Error("nil targets should fail")
	}
}

// TestDeadlockWithStrandedMessageDetected: rank 0 exits immediately, rank 1
// sends it a message nobody will ever receive and then recv-blocks on rank
// 2, which recv-blocks on rank 1 — a live cycle plus a message to an exited
// rank. The world must terminate (the send to the exited rank is dropped)
// with both live ranks failed, identically on every run.
func TestDeadlockWithStrandedMessageDetected(t *testing.T) {
	p := ir.NewProgram("strand")
	DeclareHosts(p)
	buf := p.AllocGlobal("buf", 1, ir.F64)
	b := p.NewFunc("main", 0)
	rank := b.Host(HostRank, 0, true)
	addr := b.ConstI(buf.Addr)
	one := b.ConstI(1)
	isZero := b.ICmp(ir.OpICmpEQ, rank, b.ConstI(0))
	b.IfElse(isZero, func() {
		// Rank 0: exit at once.
	}, func() {
		isOne := b.ICmp(ir.OpICmpEQ, rank, b.ConstI(1))
		b.IfElse(isOne, func() {
			// Rank 1: send to the exited rank 0, then wait on 2.
			b.Host(HostSend, 3, false, b.ConstI(0), addr, one)
			b.Host(HostRecv, 3, false, b.ConstI(2), addr, one)
		}, func() {
			// Rank 2: wait on 1 — a cycle with rank 1.
			b.Host(HostRecv, 3, false, b.ConstI(1), addr, one)
		})
	})
	b.RetVoid()
	b.Done()
	if err := p.Seal(); err != nil {
		t.Fatal(err)
	}
	var first string
	for i := 0; i < 20; i++ {
		done := make(chan *Result, 1)
		errc := make(chan error, 1)
		go func() {
			r, err := Run(p, Config{Ranks: 3, Seed: 1})
			if err != nil {
				errc <- err
				return
			}
			done <- r
		}()
		var res *Result
		select {
		case res = <-done:
		case err := <-errc:
			t.Fatal(err)
		case <-time.After(10 * time.Second):
			t.Fatal("world with stranded message hung (deadlock not detected)")
		}
		if res.Ranks[0].Trace.Status != trace.RunOK {
			t.Fatalf("rank 0 status %v, want ok", res.Ranks[0].Trace.Status)
		}
		if res.Ranks[1].Trace.Status != trace.RunCrashed || res.Ranks[2].Trace.Status != trace.RunCrashed {
			t.Fatalf("live cycle statuses %v/%v, want crashed/crashed",
				res.Ranks[1].Trace.Status, res.Ranks[2].Trace.Status)
		}
		d := fmt.Sprintf("%d %d %d", res.Ranks[0].Trace.Steps, res.Ranks[1].Trace.Steps, res.Ranks[2].Trace.Steps)
		if i == 0 {
			first = d
		} else if d != first {
			t.Fatalf("run %d steps %q, want %q (teardown nondeterministic)", i, d, first)
		}
	}
}

// TestReplayRecordingMatchesClean: a traced world run under the clean
// world's Recording replays it bit-identically, rank by rank.
func TestReplayRecordingMatchesClean(t *testing.T) {
	p := buildCampaignProg(t)
	cfg := Config{Ranks: 3, Seed: 1, Mode: interp.TraceFull}
	clean, err := Run(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Status() != trace.RunOK {
		t.Fatalf("clean status %v", clean.Status())
	}
	cfg.Replay = clean.Recording
	re, err := Run(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for r := range clean.Ranks {
		if rankDiverged(clean.Ranks[r].Trace, re.Ranks[r].Trace) {
			t.Errorf("rank %d replay diverged from clean world", r)
		}
	}
}

// TestClassifyPropagationUnits exercises the classifier on hand-built
// results.
func TestClassifyPropagationUnits(t *testing.T) {
	mk := func(status trace.RunStatus, out float64, steps uint64) *trace.Trace {
		return &trace.Trace{
			Status: status,
			Steps:  steps,
			Output: []trace.OutVal{{Val: ir.F64Word(out), Typ: ir.F64}},
		}
	}
	clean := &Result{Ranks: []RankResult{
		{Rank: 0, Trace: mk(trace.RunOK, 1, 10)},
		{Rank: 1, Trace: mk(trace.RunOK, 2, 10)},
		{Rank: 2, Trace: mk(trace.RunOK, 3, 10)},
	}}
	contained := &Result{Ranks: []RankResult{
		{Rank: 0, Trace: mk(trace.RunOK, 1, 10)},
		{Rank: 1, Trace: mk(trace.RunOK, 99, 12)}, // injected rank may differ freely
		{Rank: 2, Trace: mk(trace.RunOK, 3, 10)},
	}}
	if p := ClassifyPropagation(clean, contained, 1); p.Class != Contained || len(p.Ranks) != 0 {
		t.Errorf("contained: %v", p)
	}
	spread := &Result{Ranks: []RankResult{
		{Rank: 0, Trace: mk(trace.RunOK, 1.5, 10)}, // output off
		{Rank: 1, Trace: mk(trace.RunOK, 2, 10)},
		{Rank: 2, Trace: mk(trace.RunOK, 3, 11)}, // step count off
	}}
	p := ClassifyPropagation(clean, spread, 1)
	if p.Class != Propagated || len(p.Ranks) != 2 || p.Ranks[0] != 0 || p.Ranks[1] != 2 {
		t.Errorf("propagated: %v", p)
	}
	if s := p.String(); s != "propagated(0,2)" {
		t.Errorf("String = %q", s)
	}
	crash := &Result{Ranks: []RankResult{
		{Rank: 0, Trace: mk(trace.RunCrashed, 1, 8)},
		{Rank: 1, Trace: mk(trace.RunCrashed, 2, 9)},
		{Rank: 2, Trace: mk(trace.RunOK, 3, 10)},
	}}
	if p := ClassifyPropagation(clean, crash, 1); p.Class != WorldCrash || len(p.Ranks) != 1 || p.Ranks[0] != 0 {
		t.Errorf("world-crash: %v", p)
	}
}

// TestForeignEngineOptionIsAnError: both engines take the one campaign
// option type, so either constructor must refuse the other engine's
// options with an error rather than panic or ignore them.
func TestForeignEngineOptionIsAnError(t *testing.T) {
	p := buildCampaignProg(t)
	targets := inject.UniformDst{TotalSteps: 10}
	analysis := inject.WithAnalysis(&trace.Trace{},
		func(int, interp.Fault, *trace.Trace, inject.Outcome) (any, error) { return nil, nil })
	if _, err := NewCampaign(p, Config{Ranks: 3}, targets, campaign.WithTests(4), analysis); err == nil || !strings.Contains(err.Error(), "another engine") {
		t.Errorf("mpi.NewCampaign with inject.WithAnalysis: error %v, want one naming another engine", err)
	}
	mk := func() (*interp.Machine, error) { return interp.NewMachine(p) }
	verify := func(*trace.Trace) bool { return true }
	worldVerify := WithVerify(func(*Result) bool { return true })
	if _, err := inject.NewCampaign(mk, verify, targets, campaign.WithTests(4), worldVerify); err == nil || !strings.Contains(err.Error(), "another engine") {
		t.Errorf("inject.NewCampaign with mpi.WithVerify: error %v, want one naming another engine", err)
	}
}
