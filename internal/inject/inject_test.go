package inject

import (
	"context"
	"math/rand"
	"testing"

	"fliptracker/internal/campaign"
	"fliptracker/internal/interp"
	"fliptracker/internal/ir"
	"fliptracker/internal/trace"
)

// buildToleranceProg builds a program whose verification passes when the
// emitted value is within 10% of 10.0. Low mantissa flips are tolerated,
// exponent/sign flips are not — giving a campaign with all three outcomes
// reachable (address corruption comes from flipping address computations).
func buildToleranceProg(t *testing.T) *ir.Program {
	t.Helper()
	p, err := newToleranceProg()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func newToleranceProg() (*ir.Program, error) {
	p := ir.NewProgram("tol")
	a := p.AllocGlobal("a", 8, ir.F64)
	b := p.NewFunc("main", 0)
	for i := int64(0); i < 8; i++ {
		b.StoreGI(a, i, b.ConstF(1.25))
	}
	acc := b.ConstF(0)
	b.ForI(0, 8, func(i ir.Reg) {
		b.BinTo(ir.OpFAdd, acc, acc, b.LoadG(a, i))
	})
	b.Emit(ir.F64, acc)
	b.RetVoid()
	b.Done()
	if err := p.Seal(); err != nil {
		return nil, err
	}
	return p, nil
}

func verifyNear10(tr *trace.Trace) bool {
	if len(tr.Output) != 1 {
		return false
	}
	v := tr.Output[0].Float()
	return v > 9 && v < 11
}

func makeMachine(p *ir.Program) func() (*interp.Machine, error) {
	return func() (*interp.Machine, error) {
		m, err := interp.NewMachine(p)
		if err != nil {
			return nil, err
		}
		if err := m.BindStandardHosts(); err != nil {
			return nil, err
		}
		return m, nil
	}
}

func totalSteps(t *testing.T, p *ir.Program) uint64 {
	t.Helper()
	m, _ := interp.NewMachine(p)
	tr, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if tr.Status != trace.RunOK {
		t.Fatalf("clean run status %v", tr.Status)
	}
	return tr.Steps
}

// mustCampaign builds a campaign over the tolerance program.
func mustCampaign(t *testing.T, p *ir.Program, targets TargetPicker, opts ...Option) *Campaign {
	t.Helper()
	c, err := NewCampaign(makeMachine(p), verifyNear10, targets, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// mustRun builds and runs a campaign, failing the test on error.
func mustRun(t *testing.T, p *ir.Program, targets TargetPicker, opts ...Option) Result {
	t.Helper()
	res, err := mustCampaign(t, p, targets, opts...).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestCampaignUniformDst(t *testing.T) {
	p := buildToleranceProg(t)
	steps := totalSteps(t, p)
	res := mustRun(t, p, UniformDst{TotalSteps: steps}, campaign.WithTests(400), campaign.WithSeed(1))
	if res.Tests != 400 {
		t.Fatalf("tests = %d", res.Tests)
	}
	if res.Success+res.Failed+res.Crashed+res.NotApplied != res.Tests {
		t.Fatalf("outcome counts do not sum: %+v", res)
	}
	if res.Success == 0 {
		t.Error("expected some successes (low mantissa flips are tolerated)")
	}
	if res.Failed == 0 {
		t.Error("expected some verification failures (exponent flips)")
	}
	sr := res.SuccessRate()
	if sr <= 0 || sr >= 1 {
		t.Errorf("success rate = %v, want in (0,1)", sr)
	}
}

func TestCampaignDeterministicAcrossParallelism(t *testing.T) {
	p := buildToleranceProg(t)
	steps := totalSteps(t, p)
	mk := func(par int) Result {
		return mustRun(t, p, UniformDst{TotalSteps: steps},
			campaign.WithTests(100), campaign.WithSeed(42), campaign.WithParallelism(par))
	}
	if a, b := mk(1), mk(8); a != b {
		t.Errorf("campaign results depend on parallelism: %+v vs %+v", a, b)
	}
}

func TestCampaignSeedChangesDraws(t *testing.T) {
	p := buildToleranceProg(t)
	steps := totalSteps(t, p)
	run := func(seed int64) Result {
		return mustRun(t, p, UniformDst{TotalSteps: steps}, campaign.WithTests(60), campaign.WithSeed(seed))
	}
	if a, b := run(1), run(2); a == b {
		t.Log("different seeds coincidentally gave identical results (possible but unlikely)")
	}
}

func TestMemAtStepTargetsInputs(t *testing.T) {
	p := buildToleranceProg(t)
	a, _ := p.GlobalByName("a")
	addrs := make([]int64, a.Words)
	for i := range addrs {
		addrs[i] = a.Addr + int64(i)
	}
	// Inject after initialization (init = 8 iterations x ~6 instrs; pick a
	// step from the clean trace: the first load).
	m0, _ := interp.NewMachine(p)
	m0.Mode = interp.TraceFull
	tr0, _ := m0.Run()
	var loadStep uint64
	for i := 0; i < tr0.Recs.Len(); i++ {
		if tr0.Recs.At(i).Op == ir.OpLoad {
			loadStep = tr0.Recs.At(i).Step
			break
		}
	}
	res := mustRun(t, p, MemAtStep{Step: loadStep, Addrs: addrs}, campaign.WithTests(200), campaign.WithSeed(7))
	// Memory flips in a[] cannot crash this program (no addresses flow
	// from a[]); they either mask or fail.
	if res.Crashed != 0 {
		t.Errorf("crashes from pure-data memory flips: %+v", res)
	}
	if res.Success == 0 || res.Failed == 0 {
		t.Errorf("expected mixed outcomes: %+v", res)
	}
}

func TestStepRangeDstPicksInRange(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	pick := StepRangeDst{Lo: 100, Hi: 110}
	for i := 0; i < 50; i++ {
		f := pick.Pick(r)
		if f.Step < 100 || f.Step >= 110 {
			t.Fatalf("step %d out of range", f.Step)
		}
		if f.Kind != interp.FaultDst {
			t.Fatalf("kind = %v", f.Kind)
		}
	}
	// Degenerate range is an empty population: the fault must never fire.
	if f := (StepRangeDst{Lo: 5, Hi: 5}).Pick(r); f.Step != neverStep {
		t.Errorf("degenerate range step = %d, want never-firing", f.Step)
	}
}

func TestRunOneNotApplied(t *testing.T) {
	p := buildToleranceProg(t)
	// Step far beyond program end: fault never fires, run verifies clean.
	o, err := RunOne(makeMachine(p), verifyNear10, interp.Fault{Step: 1 << 40, Bit: 3, Kind: interp.FaultDst})
	if err != nil {
		t.Fatal(err)
	}
	if o != NotApplied {
		t.Errorf("outcome = %v, want not-applied", o)
	}
}

func TestNewCampaignValidation(t *testing.T) {
	p := buildToleranceProg(t)
	mk, targets := makeMachine(p), UniformDst{TotalSteps: 10}
	if _, err := NewCampaign(nil, nil, nil); err == nil {
		t.Error("empty campaign should fail")
	}
	if _, err := NewCampaign(mk, verifyNear10, targets); err == nil {
		t.Error("campaign without WithTests should fail")
	}
	if _, err := NewCampaign(mk, verifyNear10, targets, campaign.WithTests(-3)); err == nil {
		t.Error("negative test count should fail")
	}
	if _, err := NewCampaign(mk, verifyNear10, targets, campaign.WithTests(10), campaign.WithEarlyStop(1.5, 0.03)); err == nil {
		t.Error("early-stop confidence outside (0,1) should fail")
	}
	if _, err := NewCampaign(mk, verifyNear10, targets, campaign.WithTests(10), campaign.WithEarlyStop(0.95, 0)); err == nil {
		t.Error("early-stop margin outside (0,1) should fail")
	}
	if _, err := NewCampaign(mk, verifyNear10, targets, campaign.WithTests(10)); err != nil {
		t.Errorf("valid campaign rejected: %v", err)
	}
}

func TestResultAddCountAndRates(t *testing.T) {
	r := Result{Tests: 10, Success: 6, Failed: 2, Crashed: 2}
	r.Add(Result{Tests: 10, Success: 4, Failed: 4, Crashed: 2})
	if r.Tests != 20 || r.Success != 10 {
		t.Errorf("Add wrong: %+v", r)
	}
	if r.SuccessRate() != 0.5 {
		t.Errorf("rate = %v", r.SuccessRate())
	}
	if r.CrashRate() != 0.2 {
		t.Errorf("crash rate = %v", r.CrashRate())
	}
	var tally Result
	for _, o := range []Outcome{Success, Success, Failed, Crashed, NotApplied} {
		tally.Count(o)
	}
	if (tally != Result{Tests: 5, Success: 2, Failed: 1, Crashed: 1, NotApplied: 1}) {
		t.Errorf("Count wrong: %+v", tally)
	}
	var zero Result
	if zero.SuccessRate() != 0 || zero.CrashRate() != 0 {
		t.Error("zero result rates should be 0")
	}
}

func TestOutcomeStrings(t *testing.T) {
	for _, o := range []Outcome{Success, Failed, Crashed, NotApplied} {
		if o.String() == "" {
			t.Errorf("empty string for %d", o)
		}
	}
	if Outcome(99).String() == "" {
		t.Error("unknown outcome should stringify")
	}
}
