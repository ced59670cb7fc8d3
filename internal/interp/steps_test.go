package interp

import (
	"testing"

	"fliptracker/internal/ir"
	"fliptracker/internal/trace"
)

// buildStepsProg builds a program whose every loop step sits inside a
// fusable sequence (const→add→store bodies, const→add→br latches,
// icmp.slt→condbr heads), then calls the "probe" host and crashes on the
// load of a const→add→load sequence whose add produces a wild address.
// With huge set, the loop never ends and the run hangs instead.
func buildStepsProg(t *testing.T, huge bool) (*ir.Program, ir.Global) {
	t.Helper()
	p := ir.NewProgram("steps")
	g := p.AllocGlobal("g", 8, ir.I64)
	b := p.NewFunc("main", 0)
	n := int64(5)
	if huge {
		n = 1 << 40
	}
	zero := b.ConstI(0)
	b.ForI(0, n, func(i ir.Reg) {
		b.StoreG(g, zero, i)
	})
	b.Host("probe", 0, false)
	x := b.LoadGI(g, 0)
	b.Emit(ir.I64, b.Load(ir.I64, b.Add(x, b.ConstI(1<<40))))
	b.RetVoid()
	b.Done()
	if err := p.Seal(); err != nil {
		t.Fatal(err)
	}
	return p, g
}

// TestStepsPinned pins three Steps() values a dispatch change could move:
// the step a host observes mid-run (MPI hosts log it as their cut), the
// step count after a crash inside a fusable sequence, and the step count
// and memory at StepLimit hangs that fire inside fusable sequences. The
// expected values were taken from the interpreter before fused dispatch.
func TestStepsPinned(t *testing.T) {
	p, _ := buildStepsProg(t, false)
	for _, mode := range []TraceMode{TraceOff, TraceFull} {
		m, err := NewMachine(p)
		if err != nil {
			t.Fatal(err)
		}
		m.Mode = mode
		var seen uint64
		if err := m.BindHost("probe", func(mm *Machine, _ []ir.Word) (ir.Word, error) {
			seen = mm.Steps()
			return 0, nil
		}); err != nil {
			t.Fatal(err)
		}
		tr := mustRun(t, m)
		const msg = "load from invalid address 1099511627780 (sid 18)"
		if tr.Status != trace.RunCrashed || m.CrashMessage() != msg {
			t.Errorf("mode %d: status %v %q, want crash %q", mode, tr.Status, m.CrashMessage(), msg)
		}
		if seen != 48 || m.Steps() != 53 || tr.Steps != 53 {
			t.Errorf("mode %d: host saw step %d, crash at %d (trace %d); want 48, 53", mode, seen, m.Steps(), tr.Steps)
		}
	}

	// Each loop iteration runs 8 steps from step 7 on: const→add→store
	// (offsets 0-2), const→add→br (3-5), icmp.slt→condbr (6-7).
	hp, g := buildStepsProg(t, true)
	for _, c := range []struct {
		limit uint64
		g0    int64
	}{
		{100, 11}, // third of const→add→br
		{102, 11}, // second of icmp.slt→condbr
		{104, 11}, // second of const→add→store
		{105, 11}, // third of const→add→store: the store must not run
		{106, 12},
	} {
		for _, mode := range []TraceMode{TraceOff, TraceFull} {
			m, err := NewMachine(hp)
			if err != nil {
				t.Fatal(err)
			}
			m.Mode = mode
			m.StepLimit = c.limit
			if err := m.BindHost("probe", func(*Machine, []ir.Word) (ir.Word, error) { return 0, nil }); err != nil {
				t.Fatal(err)
			}
			tr := mustRun(t, m)
			if tr.Status != trace.RunHang || m.Steps() != c.limit+1 || m.MemAt(g.Addr).Int() != c.g0 {
				t.Errorf("limit %d mode %d: %v at step %d with g[0] = %d, want hang at %d with %d",
					c.limit, mode, tr.Status, m.Steps(), m.MemAt(g.Addr).Int(), c.limit+1, c.g0)
			}
		}
	}
}
