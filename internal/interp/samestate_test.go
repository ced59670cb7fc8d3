package interp

import (
	"testing"

	"fliptracker/internal/ir"
	"fliptracker/internal/trace"
)

// TestSameStateFieldByField restores one snapshot into fresh machines and
// changes exactly one captured field in each: SameState must see every
// change except FaultApplied and the trace records, which it ignores.
func TestSameStateFieldByField(t *testing.T) {
	p := buildSnapProg(t)
	_, full := runDirect(t, p, TraceFull, nil)
	at := full.Steps / 2
	base := snapMachine(t, p)
	if paused, err := base.RunUntil(at); err != nil || !paused {
		t.Fatalf("RunUntil(%d): paused=%v err=%v", at, paused, err)
	}
	// The program emits only at its end; give the snapshot an output so the
	// output's content, not only its length, is compared.
	base.output = append(base.output, trace.OutVal{Val: 7, Typ: ir.F64})
	snap, err := base.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !base.SameState(snap) {
		t.Fatal("machine differs from the snapshot it just took")
	}
	restored := func() *Machine {
		m := snapMachine(t, p)
		if err := m.Restore(snap); err != nil {
			t.Fatal(err)
		}
		return m
	}
	if !restored().SameState(snap) {
		t.Fatal("restored machine differs from its snapshot")
	}
	g, ok := p.GlobalByName("g")
	if !ok {
		t.Fatal("no global g")
	}

	differ := []struct {
		name   string
		mutate func(m *Machine)
	}{
		{"memory word", func(m *Machine) { m.SetMemAt(g.Addr+3, m.MemAt(g.Addr+3)^1) }},
		{"output", func(m *Machine) { m.output[0].Val ^= 1 }},
		{"rng", func(m *Machine) { m.rng ^= 1 }},
		{"register", func(m *Machine) { m.stack[len(m.stack)-1].regs[0] ^= 1 }},
		{"frame counter", func(m *Machine) { m.frames++ }},
		{"frame pc", func(m *Machine) { m.stack[0].pc++ }},
		{"pending return flip", func(m *Machine) { m.stack[0].retFlip = true }},
		{"status", func(m *Machine) { m.status = trace.RunCrashed }},
	}
	for _, d := range differ {
		m := restored()
		d.mutate(m)
		if m.SameState(snap) {
			t.Errorf("%s changed, but SameState still reports equal", d.name)
		}
	}

	same := []struct {
		name   string
		mutate func(m *Machine)
	}{
		{"FaultApplied", func(m *Machine) { m.FaultApplied = true }},
		{"records", func(m *Machine) { m.PrimeTrace(&full.Recs) }},
		// The store copies the page, so the tables no longer share it by
		// pointer; its words are still equal.
		{"page copied unchanged", func(m *Machine) { m.SetMemAt(g.Addr+3, m.MemAt(g.Addr+3)) }},
	}
	for _, s := range same {
		m := restored()
		s.mutate(m)
		if !m.SameState(snap) {
			t.Errorf("only %s changed, but SameState reports a difference", s.name)
		}
	}
}

// TestSameStatePendingCallFlip injects a real FaultDst on a call step and
// compares the faulty machine, paused inside the callee, with a clean
// snapshot at the same step: only the caller frame's pending return-value
// flip differs, and it must keep the states apart. Bit 0 keeps retBit equal
// to the clean frame's, so retFlip alone tells them apart.
func TestSameStatePendingCallFlip(t *testing.T) {
	p := buildSnapProg(t)
	_, full := runDirect(t, p, TraceFull, nil)
	var callStep uint64
	found := false
	for i := 0; i < full.Recs.Len(); i++ {
		if full.Recs.At(i).Op == ir.OpCall {
			callStep, found = full.Recs.At(i).Step, true
			break
		}
	}
	if !found {
		t.Fatal("no call in trace")
	}
	clean := snapMachine(t, p)
	if paused, err := clean.RunUntil(callStep + 2); err != nil || !paused {
		t.Fatalf("clean RunUntil: paused=%v err=%v", paused, err)
	}
	snap, err := clean.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	faulty := snapMachine(t, p)
	faulty.Fault = &Fault{Step: callStep, Bit: 0, Kind: FaultDst}
	if paused, err := faulty.RunUntil(callStep + 2); err != nil || !paused {
		t.Fatalf("faulty RunUntil: paused=%v err=%v", paused, err)
	}
	if faulty.FaultApplied {
		t.Fatal("flip landed before the callee returned; pick an earlier pause")
	}
	if faulty.SameState(snap) {
		t.Error("a machine with a pending return-value flip matches the clean snapshot")
	}
}
