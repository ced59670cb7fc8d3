package interp

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"fliptracker/internal/ir"
	"fliptracker/internal/trace"
)

// TestFaultAtEveryStepNeverPanics sweeps a fault across every dynamic step
// and every bit class of a small program: the machine must always terminate
// with a classified status, never panic — the core robustness contract of
// the injector (faults produce crashes, not interpreter bugs).
func TestFaultAtEveryStepNeverPanics(t *testing.T) {
	p, _ := buildSum(6)
	m0, _ := NewMachine(p)
	tr0, err := m0.Run()
	if err != nil {
		t.Fatal(err)
	}
	bits := []uint8{0, 1, 31, 52, 62, 63}
	for step := uint64(0); step < tr0.Steps; step++ {
		for _, bit := range bits {
			m, _ := NewMachine(p)
			m.StepLimit = 1_000_000
			m.Fault = &Fault{Step: step, Bit: bit, Kind: FaultDst}
			tr, err := m.Run()
			if err != nil {
				t.Fatalf("step %d bit %d: %v", step, bit, err)
			}
			switch tr.Status {
			case trace.RunOK, trace.RunCrashed, trace.RunHang:
			default:
				t.Fatalf("step %d bit %d: unclassified status %v", step, bit, tr.Status)
			}
		}
	}
}

// TestMemFaultSweep flips every bit of every memory word at a fixed step:
// same contract as above, for the memory-target kind.
func TestMemFaultSweep(t *testing.T) {
	p, _ := buildSum(4)
	for addr := int64(0); addr < p.MemWords; addr++ {
		for bit := 0; bit < 64; bit += 7 {
			m, _ := NewMachine(p)
			m.StepLimit = 1_000_000
			m.Fault = &Fault{Step: 10, Bit: uint8(bit), Kind: FaultMem, Addr: addr}
			tr, err := m.Run()
			if err != nil {
				t.Fatal(err)
			}
			_ = tr
		}
	}
}

func TestFaultRegKind(t *testing.T) {
	p, out := buildSum(4)
	// Flip the sign bit of register 0 right before step 5 executes.
	m, _ := NewMachine(p)
	m.Fault = &Fault{Step: 5, Bit: 63, Kind: FaultReg, Reg: 0}
	tr, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !m.FaultApplied {
		t.Fatal("register fault did not fire")
	}
	_ = out
	_ = tr
}

func TestFaultRegOutOfRangeNeverFires(t *testing.T) {
	p, _ := buildSum(4)
	for _, reg := range []ir.Reg{10_000, ir.NoReg} {
		m, _ := NewMachine(p)
		m.Fault = &Fault{Step: 5, Bit: 1, Kind: FaultReg, Reg: reg}
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		if m.FaultApplied {
			t.Fatalf("out-of-range register r%d fault should not fire", reg)
		}
	}
}

func TestTraceHintPreallocates(t *testing.T) {
	p, _ := buildSum(16)
	m0, _ := NewMachine(p)
	tr0, _ := m0.Run()

	m, _ := NewMachine(p)
	m.Mode = TraceFull
	m.TraceHint = tr0.Steps
	tr, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if uint64(tr.Recs.Len()) > tr0.Steps {
		t.Fatalf("more records (%d) than steps (%d)?", tr.Recs.Len(), tr0.Steps)
	}
	// Equivalence with the unhinted trace.
	m2, _ := NewMachine(p)
	m2.Mode = TraceFull
	tr2, _ := m2.Run()
	if tr.Recs.Len() != tr2.Recs.Len() {
		t.Fatalf("hinted trace differs: %d vs %d records", tr.Recs.Len(), tr2.Recs.Len())
	}
	for i := 0; i < tr.Recs.Len(); i++ {
		if tr.Recs.At(i) != tr2.Recs.At(i) {
			t.Fatalf("record %d differs", i)
		}
	}
}

// TestRandomProgramsProperty generates random straight-line arithmetic
// programs and checks interpreter invariants: deterministic replay and
// record/step accounting.
func TestRandomProgramsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := ir.NewProgram("rand")
		g := p.AllocGlobal("g", 8, ir.F64)
		b := p.NewFunc("main", 0)
		regs := []ir.Reg{b.ConstF(rng.Float64()), b.ConstF(rng.Float64() + 1)}
		ops := []ir.Opcode{ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFDiv}
		for i := 0; i < 30; i++ {
			a := regs[rng.Intn(len(regs))]
			c := regs[rng.Intn(len(regs))]
			regs = append(regs, b.Bin(ops[rng.Intn(len(ops))], a, c))
		}
		b.StoreGI(g, 0, regs[len(regs)-1])
		b.Emit(ir.F64, regs[len(regs)-1])
		b.RetVoid()
		b.Done()
		if err := p.Seal(); err != nil {
			return false
		}
		run := func() *trace.Trace {
			m, _ := NewMachine(p)
			m.Mode = TraceFull
			tr, err := m.Run()
			if err != nil {
				return nil
			}
			return tr
		}
		t1, t2 := run(), run()
		if t1 == nil || t2 == nil {
			return false
		}
		if t1.Steps != t2.Steps || t1.Recs.Len() != t2.Recs.Len() {
			return false
		}
		// Records never outnumber steps; steps of records strictly increase.
		if uint64(t1.Recs.Len()) > t1.Steps {
			return false
		}
		for i := 1; i < t1.Recs.Len(); i++ {
			if t1.Recs.At(i).Step <= t1.Recs.At(i-1).Step {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestPrimeTraceStitchesFullTrace checks the restored-run trace stitching
// behind analyzed campaigns: restore a snapshot taken from an untraced
// prefix run, prime the record buffer from a clean full trace, resume with
// TraceFull and a fault — the result must be byte-identical to a
// from-step-0 TraceFull faulty run, with no append growth beyond the
// primed capacity.
func TestPrimeTraceStitchesFullTrace(t *testing.T) {
	p, _ := buildSum(16)
	full, _ := NewMachine(p)
	full.Mode = TraceFull
	clean, err := full.Run()
	if err != nil {
		t.Fatal(err)
	}
	fault := Fault{Step: clean.Steps / 2, Bit: 40, Kind: FaultDst}

	// Reference: direct traced faulty run.
	dm, _ := NewMachine(p)
	dm.Mode = TraceFull
	dm.Fault = &fault
	want, err := dm.Run()
	if err != nil {
		t.Fatal(err)
	}

	// Untraced prefix run up to a checkpoint before the fault.
	ckStep := clean.Steps / 3
	base, _ := NewMachine(p)
	if paused, err := base.RunUntil(ckStep); err != nil || !paused {
		t.Fatalf("RunUntil: paused=%v err=%v", paused, err)
	}
	snap, err := base.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	// Restored traced run, primed with the clean prefix.
	m, _ := NewMachine(p)
	m.Mode = TraceFull
	m.Fault = &fault
	if err := m.Restore(snap); err != nil {
		t.Fatal(err)
	}
	hint := uint64(clean.Recs.Len()) + 64
	m.PrimeTrace(&clean.Recs)
	got, err := m.Resume()
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != want.Status || got.Steps != want.Steps {
		t.Fatalf("stitched run: status %v steps %d, want %v %d", got.Status, got.Steps, want.Status, want.Steps)
	}
	if got.Recs.Len() != want.Recs.Len() {
		t.Fatalf("stitched trace has %d records, want %d", got.Recs.Len(), want.Recs.Len())
	}
	for i := 0; i < got.Recs.Len(); i++ {
		if got.Recs.At(i) != want.Recs.At(i) {
			t.Fatalf("record %d differs:\ngot  %+v\nwant %+v", i, got.Recs.At(i), want.Recs.At(i))
		}
	}
	if uint64(got.Recs.Cap()) != hint {
		t.Errorf("record buffer capacity %d, want primed %d (no growth copies)", got.Recs.Cap(), hint)
	}
}

// buildNestedCalls is a program whose value-returning calls nest
// (main -> square -> inner), so records of the calls still awaiting their
// return at a pause point carry steps below it: each OpRet record is
// stamped with its call site's step but emitted when the callee returns.
func buildNestedCalls(t *testing.T) *ir.Program {
	t.Helper()
	p := ir.NewProgram("nested")
	g := p.AllocGlobal("g", 4, ir.F64)
	inner := p.NewFunc("inner", 1)
	inner.Ret(inner.FAdd(ir.Reg(0), inner.ConstF(0.5)))
	inner.Done()
	square := p.NewFunc("square", 1)
	y := square.Call("inner", ir.Reg(0))
	square.Ret(square.FMul(y, y))
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
	return p
}

// TestPrimeTraceCutAtEveryStep pauses a program with nested value-returning
// calls at every step. PrimeTrace on a machine restored there must keep
// exactly the records a traced run paused at the same step holds, and
// resuming must give the from-step-0 traced run's trace, fault-free and
// with a fault struck at the pause step. The fixture must also contain
// pause steps where a cut by record step alone differs from the exact cut.
func TestPrimeTraceCutAtEveryStep(t *testing.T) {
	p := buildNestedCalls(t)
	_, clean := runDirect(t, p, TraceFull, nil)
	stepCutWrong := 0
	for at := uint64(0); at < clean.Steps; at++ {
		ref := snapMachine(t, p)
		ref.Mode = TraceFull
		if paused, err := ref.RunUntil(at); err != nil || !paused {
			t.Fatalf("traced RunUntil(%d): paused=%v err=%v", at, paused, err)
		}
		base := snapMachine(t, p)
		if paused, err := base.RunUntil(at); err != nil || !paused {
			t.Fatalf("RunUntil(%d): paused=%v err=%v", at, paused, err)
		}
		snap, err := base.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if sort.Search(clean.Recs.Len(), func(i int) bool { return clean.Recs.Step(i) >= at }) != ref.recs.Len() {
			stepCutWrong++
		}
		for _, f := range []*Fault{nil, {Step: at, Bit: 51, Kind: FaultDst}} {
			_, want := runDirect(t, p, TraceFull, f)
			m := snapMachine(t, p)
			m.Mode = TraceFull
			m.Fault = f
			if err := m.Restore(snap); err != nil {
				t.Fatal(err)
			}
			m.PrimeTrace(&clean.Recs)
			if !m.recs.Equal(&ref.recs) {
				t.Fatalf("step %d: PrimeTrace kept %d records, a traced run paused there holds %d", at, m.recs.Len(), ref.recs.Len())
			}
			got, err := m.Resume()
			if err != nil {
				t.Fatal(err)
			}
			sameTrace(t, fmt.Sprintf("step %d fault %v", at, f), got, want)
		}
	}
	if stepCutWrong == 0 {
		t.Fatal("fixture defect: a cut by record step is exact at every pause step")
	}
	t.Logf("%d pause steps; a cut by record step is wrong at %d", clean.Steps, stepCutWrong)
}
