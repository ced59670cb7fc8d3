package interp

import (
	"reflect"
	"testing"

	"fliptracker/internal/ir"
)

// buildPagedProg builds a program whose global spans several memory pages
// and whose main dirties exactly two of them, so page-level CoW accounting
// is observable: page 0 (g[0]) and page 1 (g[pageWords+1]) are written,
// page 2 is only read.
func buildPagedProg(t *testing.T) (*ir.Program, ir.Global) {
	t.Helper()
	p := ir.NewProgram("cow")
	g := p.AllocGlobal("g", 3*pageWords, ir.F64)
	b := p.NewFunc("main", 0)
	b.StoreGI(g, 0, b.ConstF(1.5))
	b.StoreGI(g, pageWords+1, b.ConstF(2.5))
	sum := b.FAdd(b.LoadGI(g, 0), b.LoadGI(g, pageWords+1))
	sum = b.FAdd(sum, b.LoadGI(g, 2*pageWords+3)) // page 2: read-only
	b.Emit(ir.F64, sum)
	b.RetVoid()
	b.Done()
	if err := p.Seal(); err != nil {
		t.Fatal(err)
	}
	return p, g
}

// TestCoWFaultMemIntoSharedPage injects a FaultMem into a page the machine
// shares with a snapshot. The flip must land in the machine's private copy:
// a second machine restored from the same snapshot afterwards must see the
// unflipped memory and finish exactly like the clean run.
func TestCoWFaultMemIntoSharedPage(t *testing.T) {
	p := buildSnapProg(t)
	_, clean := runDirect(t, p, TraceOff, nil)
	at := clean.Steps / 2

	base := snapMachine(t, p)
	if paused, err := base.RunUntil(at); err != nil || !paused {
		t.Fatalf("RunUntil: paused=%v err=%v", paused, err)
	}
	snap, err := base.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	f := Fault{Step: at + 1, Bit: 9, Kind: FaultMem, Addr: 5}
	_, wantFaulty := runDirect(t, p, TraceOff, &f)

	fm := snapMachine(t, p)
	fm.Fault = &f
	if err := fm.Restore(snap); err != nil {
		t.Fatal(err)
	}
	gotFaulty, err := fm.Resume()
	if err != nil {
		t.Fatal(err)
	}
	if !fm.FaultApplied {
		t.Fatal("FaultMem did not fire")
	}
	sameTrace(t, "faulty after restore", gotFaulty, wantFaulty)

	// The snapshot must be untouched by the other restore's memory flip.
	cm := snapMachine(t, p)
	if err := cm.Restore(snap); err != nil {
		t.Fatal(err)
	}
	gotClean, err := cm.Resume()
	if err != nil {
		t.Fatal(err)
	}
	sameTrace(t, "clean after faulty sibling", gotClean, clean)
}

// TestCoWHostWriteAfterSnapshot mutates a paused machine's memory through
// the external accessors (the path MPI host functions use) and checks the
// pre-existing snapshot still restores the original values.
func TestCoWHostWriteAfterSnapshot(t *testing.T) {
	p, g := buildPagedProg(t)
	m, err := NewMachine(p)
	if err != nil {
		t.Fatal(err)
	}
	_, clean := runDirect(t, p, TraceOff, nil)
	if paused, err := m.RunUntil(clean.Steps - 2); err != nil || !paused {
		t.Fatalf("RunUntil: paused=%v err=%v", paused, err)
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	before0 := m.MemAt(g.Addr)

	// Single-word write into a dirty-then-shared page, bulk write spanning
	// the page-1/page-2 boundary (page 2 is still zero-page backed).
	m.SetMemAt(g.Addr, ir.F64Word(-7))
	span := []ir.Word{ir.F64Word(10), ir.F64Word(11), ir.F64Word(12), ir.F64Word(13)}
	m.WriteMem(g.Addr+2*pageWords-2, span)

	if got := m.MemAt(g.Addr).Float(); got != -7 {
		t.Errorf("SetMemAt not visible: %v", got)
	}
	got := make([]ir.Word, len(span))
	m.ReadMem(got, g.Addr+2*pageWords-2)
	if !reflect.DeepEqual(got, span) {
		t.Errorf("WriteMem round-trip: %v vs %v", got, span)
	}

	// The snapshot still holds the pre-write state.
	rm, err := RestoreMachine(p, snap)
	if err != nil {
		t.Fatal(err)
	}
	if rm.MemAt(g.Addr) != before0 {
		t.Errorf("snapshot page corrupted by SetMemAt: %v vs %v", rm.MemAt(g.Addr), before0)
	}
	for i, a := int64(0), g.Addr+2*pageWords-2; i < 4; i++ {
		if v := rm.MemAt(a + i); v != 0 {
			t.Errorf("snapshot zero page corrupted at +%d: %v", i, v)
		}
	}
}

// TestCoWDivergeAndResnapshot restores two machines from one snapshot, lets
// them diverge under different faults, re-snapshots each mid-flight, and
// checks the second-generation snapshots resume bit-identically to direct
// faulty runs — pages shared across three tables with different owners.
func TestCoWDivergeAndResnapshot(t *testing.T) {
	p := buildSnapProg(t)
	_, clean := runDirect(t, p, TraceOff, nil)
	at := clean.Steps / 3

	base := snapMachine(t, p)
	if paused, err := base.RunUntil(at); err != nil || !paused {
		t.Fatalf("RunUntil: paused=%v err=%v", paused, err)
	}
	snap, err := base.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	for _, f := range []Fault{
		{Step: at + 2, Bit: 4, Kind: FaultMem, Addr: 3},
		{Step: at + 2, Bit: 44, Kind: FaultMem, Addr: 9},
	} {
		f := f
		_, want := runDirect(t, p, TraceOff, &f)

		m := snapMachine(t, p)
		m.Fault = &f
		if err := m.Restore(snap); err != nil {
			t.Fatal(err)
		}
		// Run past the fault, then re-snapshot the diverged machine.
		if paused, err := m.RunUntil(at + 10); err != nil || !paused {
			t.Fatalf("RunUntil past fault: paused=%v err=%v", paused, err)
		}
		snap2, err := m.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		m2 := snapMachine(t, p)
		if err := m2.Restore(snap2); err != nil {
			t.Fatal(err)
		}
		got, err := m2.Resume()
		if err != nil {
			t.Fatal(err)
		}
		sameTrace(t, "re-snapshotted "+f.String(), got, want)

		// The diverged original must finish identically too.
		got1, err := m.Resume()
		if err != nil {
			t.Fatal(err)
		}
		sameTrace(t, "diverged original "+f.String(), got1, want)
	}
}

// TestCoWWordsAccounting pins a snapshot's page accounting to materialized
// pages only: fresh machines pin nothing, each first-touched page counts
// once, and restoring adopts the snapshot's materialization count.
func TestCoWWordsAccounting(t *testing.T) {
	p, g := buildPagedProg(t)
	m, err := NewMachine(p)
	if err != nil {
		t.Fatal(err)
	}
	if m.mem.mat != 0 {
		t.Fatalf("fresh machine materialized %d pages", m.mem.mat)
	}
	_, clean := runDirect(t, p, TraceOff, nil)
	if paused, err := m.RunUntil(clean.Steps - 2); err != nil || !paused {
		t.Fatalf("RunUntil: paused=%v err=%v", paused, err)
	}
	// main dirtied page 0 and page 1; page 2 was only read.
	if m.mem.mat != 2 {
		t.Fatalf("materialized pages = %d, want 2", m.mem.mat)
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.memMat != 2 {
		t.Errorf("snapshot pins %d materialized pages, want 2", snap.memMat)
	}

	// Re-dirtying an already-materialized shared page must not recount it;
	// first touch of the zero-backed page 2 must.
	rm, err := RestoreMachine(p, snap)
	if err != nil {
		t.Fatal(err)
	}
	if rm.mem.mat != 2 {
		t.Fatalf("restored machine materialized %d pages, want 2", rm.mem.mat)
	}
	rm.SetMemAt(g.Addr, ir.F64Word(9))
	if rm.mem.mat != 2 {
		t.Errorf("re-dirtying a materialized page changed mat to %d", rm.mem.mat)
	}
	rm.SetMemAt(g.Addr+2*pageWords, ir.F64Word(9))
	if rm.mem.mat != 3 {
		t.Errorf("first touch of a zero page: mat = %d, want 3", rm.mem.mat)
	}
	if snap.memMat != 2 {
		t.Errorf("snapshot page count changed after restore-side writes: %d", snap.memMat)
	}
}
