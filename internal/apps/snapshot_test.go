package apps

import (
	"reflect"
	"testing"

	"fliptracker/internal/interp"
	"fliptracker/internal/trace"
)

// Checkpointed campaigns are only sound if a run resumed from a
// snapshot is bit-identical to a from-scratch run. These tests pin that on
// real workloads: clean and faulty runs, across several apps, comparing
// outcome-relevant state (status, step count, every output word,
// FaultApplied).

var snapshotApps = []string{"cg", "mg", "is", "kmeans"}

func snapApp(t *testing.T, name string) *App {
	t.Helper()
	a, ok := Get(name)
	if !ok {
		t.Fatalf("app %q not registered", name)
	}
	return a
}

func sameRun(t *testing.T, label string, got, want *trace.Trace) {
	t.Helper()
	if got.Status != want.Status {
		t.Errorf("%s: status = %v, want %v", label, got.Status, want.Status)
	}
	if got.Steps != want.Steps {
		t.Errorf("%s: steps = %d, want %d", label, got.Steps, want.Steps)
	}
	if !reflect.DeepEqual(got.Output, want.Output) {
		t.Errorf("%s: output differs (%d vs %d values)", label, len(got.Output), len(want.Output))
	}
}

func TestSnapshotRestoreCleanRunsBitIdentical(t *testing.T) {
	for _, name := range snapshotApps {
		t.Run(name, func(t *testing.T) {
			a := snapApp(t, name)
			want, err := a.CleanTrace(interp.TraceOff)
			if err != nil {
				t.Fatal(err)
			}
			for _, frac := range []uint64{4, 2} {
				at := want.Steps / frac
				base, err := a.NewMachine()
				if err != nil {
					t.Fatal(err)
				}
				if paused, err := base.RunUntil(at); err != nil || !paused {
					t.Fatalf("RunUntil(%d): paused=%v err=%v", at, paused, err)
				}
				snap, err := base.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				m, err := a.NewMachine()
				if err != nil {
					t.Fatal(err)
				}
				if err := m.Restore(snap); err != nil {
					t.Fatal(err)
				}
				tr, err := m.Resume()
				if err != nil {
					t.Fatal(err)
				}
				sameRun(t, name, tr, want)
				if !a.Verify(tr) {
					t.Errorf("%s: restored clean run fails verification", name)
				}
			}
		})
	}
}

func TestSnapshotRestoreFaultyRunsBitIdentical(t *testing.T) {
	for _, name := range snapshotApps {
		t.Run(name, func(t *testing.T) {
			a := snapApp(t, name)
			clean, err := a.CleanTrace(interp.TraceOff)
			if err != nil {
				t.Fatal(err)
			}
			at := clean.Steps / 2
			base, err := a.NewMachine()
			if err != nil {
				t.Fatal(err)
			}
			if paused, err := base.RunUntil(at); err != nil || !paused {
				t.Fatalf("RunUntil(%d): paused=%v err=%v", at, paused, err)
			}
			snap, err := base.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			// A spread of bits: low mantissa (usually masked), exponent
			// (usually SDC), and high bits of address-feeding integers
			// (often crashes) — all three manifestations exercised.
			for _, bit := range []uint8{2, 21, 43, 52, 62} {
				f := interp.Fault{Step: at + (clean.Steps-at)/3, Bit: bit, Kind: interp.FaultDst}
				dm, err := a.NewMachine()
				if err != nil {
					t.Fatal(err)
				}
				df := f
				dm.Fault = &df
				want, err := dm.Run()
				if err != nil {
					t.Fatal(err)
				}

				m, err := a.NewMachine()
				if err != nil {
					t.Fatal(err)
				}
				if err := m.Restore(snap); err != nil {
					t.Fatal(err)
				}
				rf := f
				m.Fault = &rf
				got, err := m.Resume()
				if err != nil {
					t.Fatal(err)
				}
				sameRun(t, f.String(), got, want)
				if m.FaultApplied != dm.FaultApplied {
					t.Errorf("%s: FaultApplied = %v, want %v", f.String(), m.FaultApplied, dm.FaultApplied)
				}
				if a.Verify(got) != a.Verify(want) {
					t.Errorf("%s: verification verdict differs between restored and direct run", f.String())
				}
			}
		})
	}
}
