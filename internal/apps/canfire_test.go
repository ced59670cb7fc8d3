package apps

import (
	"testing"

	"fliptracker/internal/interp"
	"fliptracker/internal/ir"
)

// TestFiresRuleExact: on every registered program, a FaultDst struck at the
// first dynamic occurrence of each static instruction fires exactly when
// interp.CanFire says it can. Each probe restores the clean run at that step
// and runs one step; a call runs to the end, since its flip lands when the
// callee returns. A call into a callee that returns a value on some paths
// only is the rule's "may fire" case, which the run decides; interp's
// TestCanFireMatchesDispatch covers it.
func TestFiresRuleExact(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			a, _ := Get(name)
			p, err := a.Program()
			if err != nil {
				t.Fatal(err)
			}
			rec, err := a.NewMachine()
			if err != nil {
				t.Fatal(err)
			}
			rec.RecordSIDs = true
			if _, err := rec.Run(); err != nil {
				t.Fatal(err)
			}
			sids := rec.SIDLog()
			base, err := a.NewMachine()
			if err != nil {
				t.Fatal(err)
			}
			seen := make(map[int32]bool)
			fired := 0
			for step, sid := range sids {
				if seen[sid] {
					continue
				}
				seen[sid] = true
				fn, off := p.FuncOf(int(sid))
				in := &fn.Code[off]
				if in.Op == ir.OpCall {
					if value, void := p.Funcs[in.Callee].Returns(); value && void {
						continue
					}
				}
				if paused, err := base.RunUntil(uint64(step)); err != nil || !paused {
					t.Fatalf("clean run to step %d: paused=%v err=%v", step, paused, err)
				}
				snap, err := base.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				f := interp.Fault{Step: uint64(step), Bit: 5, Kind: interp.FaultDst}
				m, err := a.NewMachine()
				if err != nil {
					t.Fatal(err)
				}
				m.Fault = &f
				if err := m.Restore(snap); err != nil {
					t.Fatal(err)
				}
				if in.Op == ir.OpCall {
					_, err = m.Resume()
				} else {
					_, err = m.RunUntil(uint64(step) + 1)
				}
				if err != nil {
					t.Fatal(err)
				}
				if can := interp.CanFire(p, int(sid), f); m.FaultApplied != can {
					t.Errorf("step %d, sid %d (%s in %s): fault applied %v, CanFire %v",
						step, sid, in.Op, fn.Name, m.FaultApplied, can)
				}
				if m.FaultApplied {
					fired++
				}
			}
			if fired == 0 || fired == len(seen) {
				t.Errorf("%d of %d probed instructions fired; the probes should see both answers", fired, len(seen))
			}
		})
	}
}
