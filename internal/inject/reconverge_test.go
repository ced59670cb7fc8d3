package inject_test

import (
	"context"
	"sync/atomic"
	"testing"

	"fliptracker/internal/apps"
	"fliptracker/internal/campaign"
	"fliptracker/internal/inject"
	"fliptracker/internal/interp"
	"fliptracker/internal/ir"
	"fliptracker/internal/trace"
)

// reconvergeTests is the fault count per population: enough that every
// registered program has injections that reconverge.
const reconvergeTests = 80

// checkAgainstRunOne runs an untraced campaign at parallelism 2 and requires
// every fault's outcome to equal a from-step-0 RunOne of the same fault.
func checkAgainstRunOne(t *testing.T, label string, mk func() (*interp.Machine, error), verify func(*trace.Trace) bool, targets inject.TargetPicker) []inject.Outcome {
	t.Helper()
	c, err := inject.NewCampaign(mk, verify, targets,
		campaign.WithTests(reconvergeTests), campaign.WithSeed(1), campaign.WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	var outs []inject.Outcome
	for fo, err := range c.Stream(context.Background()) {
		if err != nil {
			t.Fatal(err)
		}
		want, err := inject.RunOne(mk, verify, fo.Fault)
		if err != nil {
			t.Fatal(err)
		}
		if fo.Outcome != want {
			t.Errorf("%s: fault %d (%v): campaign %v, RunOne %v", label, fo.Index, &fo.Fault, fo.Outcome, want)
		}
		outs = append(outs, fo.Outcome)
	}
	return outs
}

// TestReconvergedOutcomesMatchRunOne runs whole-program result and memory
// campaigns on every registered program: injections cut short at a clean
// checkpoint must classify exactly as from-step-0 runs, and every program
// must have some.
func TestReconvergedOutcomesMatchRunOne(t *testing.T) {
	var cut atomic.Int64
	defer inject.OnReconverge(func(uint64) { cut.Add(1) })()
	for _, name := range apps.Names() {
		a, _ := apps.Get(name)
		p, err := a.Program()
		if err != nil {
			t.Fatal(err)
		}
		clean, err := a.CleanTrace(interp.TraceOff)
		if err != nil {
			t.Fatal(err)
		}
		before := cut.Load()
		checkAgainstRunOne(t, name+"/dst", a.NewMachine, a.Verify, inject.UniformDst{TotalSteps: clean.Steps})
		checkAgainstRunOne(t, name+"/mem", a.NewMachine, a.Verify,
			inject.UniformMem{TotalSteps: clean.Steps, FirstAddr: 1, LastAddr: p.MemWords})
		if cut.Load() == before {
			t.Errorf("%s: no injection reconverged in %d faults", name, 2*reconvergeTests)
		}
	}
}

// TestReconvergedFailsWhereCleanFails uses a program whose fault-free
// output fails verification: a reconverged injection ends in that output,
// so it classifies Failed, exactly as its from-step-0 run does.
func TestReconvergedFailsWhereCleanFails(t *testing.T) {
	p := ir.NewProgram("scratch")
	s := p.AllocGlobal("s", 4, ir.F64)
	b := p.NewFunc("main", 0)
	acc := b.ConstF(0)
	// Each pass rewrites the scratch array before reading it, so a flip in
	// it, or in a loop temporary, is overwritten and the run reconverges.
	b.ForI(0, 6, func(ir.Reg) {
		b.ForI(0, 4, func(i ir.Reg) { b.StoreG(s, i, b.ConstF(0.5)) })
		b.ForI(0, 4, func(i ir.Reg) { b.BinTo(ir.OpFAdd, acc, acc, b.LoadG(s, i)) })
	})
	b.Emit(ir.F64, acc)
	b.RetVoid()
	b.Done()
	if err := p.Seal(); err != nil {
		t.Fatal(err)
	}
	mk := func() (*interp.Machine, error) { return interp.NewMachine(p) }
	m, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	clean, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	// The clean sum is 12; demand 100, so the clean output fails.
	verify := func(tr *trace.Trace) bool { return len(tr.Output) == 1 && tr.Output[0].Float() == 100 }

	var cut atomic.Int64
	defer inject.OnReconverge(func(uint64) { cut.Add(1) })()
	outs := checkAgainstRunOne(t, "dst", mk, verify, inject.UniformDst{TotalSteps: clean.Steps})
	outs = append(outs, checkAgainstRunOne(t, "mem", mk, verify,
		inject.UniformMem{TotalSteps: clean.Steps, FirstAddr: s.Addr, LastAddr: s.Addr + s.Words})...)
	if cut.Load() == 0 {
		t.Fatal("no injection reconverged")
	}
	for i, o := range outs {
		if o != inject.Failed && o != inject.Crashed {
			t.Errorf("outcome %d is %v; with a failing clean output only Failed and Crashed are possible", i, o)
		}
	}
}
