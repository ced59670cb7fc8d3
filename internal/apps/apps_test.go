package apps

import (
	"testing"

	"fliptracker/internal/interp"
	"fliptracker/internal/mpi"
	"fliptracker/internal/trace"
)

func TestAllAppsBuildAndRunClean(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			a, ok := Get(name)
			if !ok {
				t.Fatal("registry lookup failed")
			}
			p, err := a.Program()
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			if p.TotalInstrs == 0 {
				t.Fatal("empty program")
			}
			tr, err := a.CleanTrace(interp.TraceOff)
			if err != nil {
				t.Fatalf("clean run: %v", err)
			}
			if len(tr.Output) == 0 {
				t.Fatal("no verification outputs emitted")
			}
			if !a.Verify(tr) {
				t.Fatal("clean run does not verify against itself")
			}
			t.Logf("%s: %d static instrs, %d dynamic steps, %d outputs",
				name, p.TotalInstrs, tr.Steps, len(tr.Output))
		})
	}
}

func TestAllAppsDeterministic(t *testing.T) {
	for _, name := range Names() {
		a, _ := Get(name)
		t1, err := a.CleanTrace(interp.TraceOff)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		t2, err := a.CleanTrace(interp.TraceOff)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if t1.Steps != t2.Steps || len(t1.Output) != len(t2.Output) {
			t.Errorf("%s: runs differ: %d/%d steps, %d/%d outputs",
				name, t1.Steps, t2.Steps, len(t1.Output), len(t2.Output))
			continue
		}
		for i := range t1.Output {
			if t1.Output[i] != t2.Output[i] {
				t.Errorf("%s: output %d differs: %v vs %v", name, i,
					t1.Output[i].Float(), t2.Output[i].Float())
			}
		}
	}
}

func TestAllAppsRegionsPresent(t *testing.T) {
	for _, name := range Names() {
		a, _ := Get(name)
		p, err := a.Program()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		m, err := a.NewMachine()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Full tracing of no function records the region markers alone.
		m.Mode = interp.TraceFull
		m.TraceFuncs = map[int]bool{}
		tr, err := m.Run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ix := trace.NewSpanIndex(tr)
		for _, rn := range a.Regions {
			r, ok := p.RegionByName(rn)
			if !ok {
				t.Errorf("%s: region %q not in program", name, rn)
				continue
			}
			inst := ix.Instances(int32(r.ID))
			if len(inst) == 0 {
				t.Errorf("%s: region %q has no dynamic instances", name, rn)
			}
		}
		// Main loop region must have MainIterations instances.
		r, ok := p.RegionByName(a.MainLoop)
		if !ok {
			t.Errorf("%s: main loop region %q missing", name, a.MainLoop)
			continue
		}
		inst := ix.Instances(int32(r.ID))
		if len(inst) != a.MainIterations {
			t.Errorf("%s: main loop region instances = %d, want %d (one per iteration)",
				name, len(inst), a.MainIterations)
		}
	}
}

func TestAllAppsRejectGarbageOutput(t *testing.T) {
	// Verification must fail when outputs are perturbed beyond tolerance.
	for _, name := range Names() {
		a, _ := Get(name)
		tr, err := a.CleanTrace(interp.TraceOff)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		bad := &trace.Trace{Status: trace.RunOK, Output: append([]trace.OutVal(nil), tr.Output...)}
		o := bad.Output[0]
		bad.Output[0] = trace.OutVal{Val: o.Val ^ (1 << 62), Typ: o.Typ, Sci6: o.Sci6}
		if a.Verify(bad) {
			t.Errorf("%s: verification accepted corrupted output", name)
		}
		short := &trace.Trace{Status: trace.RunOK, Output: tr.Output[:len(tr.Output)-1]}
		if a.Verify(short) {
			t.Errorf("%s: verification accepted truncated output", name)
		}
	}
}

func TestTableIVAndFig5NamesRegistered(t *testing.T) {
	for _, n := range TableIVNames() {
		if _, ok := Get(n); !ok {
			t.Errorf("Table IV benchmark %q not registered", n)
		}
	}
	for _, n := range Fig5Names() {
		if _, ok := Get(n); !ok {
			t.Errorf("Figure 5 benchmark %q not registered", n)
		}
	}
}

func TestMPIVariantsRun(t *testing.T) {
	// Every registered workload must have a working SPMD variant (the
	// Figure 4 study uses five of them, but all are buildable).
	for _, name := range Names() {
		a, ok := Get(name)
		if !ok {
			t.Fatalf("%s missing", name)
		}
		p, err := a.MPIProgram()
		if err != nil {
			t.Fatalf("%s mpi build: %v", name, err)
		}
		res, err := mpi.Run(p, mpi.Config{Ranks: 2, Seed: DefaultSeed,
			ExtraBind: func(m *interp.Machine, _ int) error { return BindMathHosts(m) }})
		if err != nil {
			t.Fatalf("%s mpi run: %v", name, err)
		}
		if res.Status() != trace.RunOK {
			t.Errorf("%s mpi status: %v", name, res.Status())
		}
		// Ranks must actually have communicated: the checksum buffer
		// exists in the MPI build.
		if _, ok := p.GlobalByName("mpi_ck"); !ok {
			t.Errorf("%s mpi variant has no checksum buffer", name)
		}
	}
}

func TestGetUnknown(t *testing.T) {
	if _, ok := Get("no-such-app"); ok {
		t.Error("unknown app should not resolve")
	}
}
