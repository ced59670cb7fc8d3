package apps

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"fliptracker/internal/interp"
	"fliptracker/internal/ir"
	"fliptracker/internal/trace"
)

// fusedPerKind is how many occurrences of each fused code the oracle test
// samples per app.
const fusedPerKind = 1

// runResult is the outcome-relevant state of one run.
type runResult struct {
	status  trace.RunStatus
	steps   uint64
	output  []trace.OutVal
	applied bool
	crash   string
}

func (r runResult) String() string {
	return fmt.Sprintf("%v after %d steps, %d outputs, applied %v, crash %q", r.status, r.steps, len(r.output), r.applied, r.crash)
}

func resultOf(m *interp.Machine, tr *trace.Trace) runResult {
	r := runResult{tr.Status, tr.Steps, tr.Output, m.FaultApplied, m.CrashMessage()}
	if tr.Steps != m.Steps() {
		r.crash += fmt.Sprintf(" [trace steps %d != machine steps %d]", tr.Steps, m.Steps())
	}
	trace.PutRecs(tr.Recs)
	return r
}

// fusedOccurrences replays a clean run's SID log through the program's
// Dispatch codes the way an untraced run dispatches it and returns, per
// fused code, the steps at which that code is dispatched.
func fusedOccurrences(p *ir.Program, log []int32) map[ir.Opcode][]uint64 {
	disp := make([]ir.Opcode, p.TotalInstrs)
	for _, f := range p.Funcs {
		copy(disp[f.Base:], f.Dispatch)
	}
	occ := map[ir.Opcode][]uint64{}
	for j := 0; j < len(log); {
		d := disp[log[j]]
		seq := d.Fused()
		if seq == nil {
			j++
			continue
		}
		occ[d] = append(occ[d], uint64(j))
		j += len(seq)
	}
	return occ
}

// memAddrFrom returns the first memory word a record at or after step
// reads or writes, so FaultMem strikes data the sequence is about to use.
func memAddrFrom(recs *trace.Recs, step uint64) int64 {
	for i := sort.Search(recs.Len(), func(i int) bool { return recs.Step(i) >= step }); i < recs.Len(); i++ {
		if recs.Dst(i).IsMem() {
			return recs.Dst(i).Addr()
		}
		for j := 0; j < recs.NSrc(i); j++ {
			if recs.Src(i, j).IsMem() {
				return recs.Src(i, j).Addr()
			}
		}
	}
	return 1
}

// TestFusedDispatchMatchesTraced is the oracle test of fused dispatch.
// Traced frames never fuse, so a TraceFull run executes every step through
// the plain handlers and is the reference for an untraced run. For every
// app it samples occurrences of each fused code and, at every position
// inside each sequence, compares untraced against traced runs under a
// FaultDst, a FaultReg and a FaultMem fault at that step and under a
// StepLimit hang at that step. It also pauses an untraced run there,
// snapshots it, and resumes a restored copy under the FaultDst fault. Any
// fused handler that runs through an event, or that differs from the plain
// handlers, shows up as a different status, step count, output,
// FaultApplied or crash message.
func TestFusedDispatchMatchesTraced(t *testing.T) {
	for _, name := range TableIVNames() {
		a, _ := Get(name)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			p, err := a.Program()
			if err != nil {
				t.Fatal(err)
			}
			cm, err := a.NewMachine()
			if err != nil {
				t.Fatal(err)
			}
			cm.Mode, cm.RecordSIDs = interp.TraceFull, true
			clean, err := cm.Run()
			if err != nil || clean.Status != trace.RunOK {
				t.Fatalf("clean run: %v", err)
			}
			log := cm.SIDLog()

			run := func(mode interp.TraceMode, f *interp.Fault, limit uint64) runResult {
				m, err := a.NewMachine()
				if err != nil {
					t.Fatal(err)
				}
				m.Mode, m.Fault, m.TraceHint = mode, f, clean.Steps
				if limit > 0 {
					m.StepLimit = limit
				}
				tr, err := m.Run()
				if err != nil {
					t.Fatal(err)
				}
				return resultOf(m, tr)
			}
			check := func(label string, got, want runResult) {
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s:\nuntraced %v\ntraced   %v", label, got, want)
				}
			}

			occ := fusedOccurrences(p, log)
			for _, kind := range fusedCodes() {
				starts := occ[kind]
				for n := 0; n < fusedPerKind && n < len(starts); n++ {
					s := starts[(2*n+1)*len(starts)/(2*fusedPerKind)]
					for j := range kind.Fused() {
						step := s + uint64(j)
						in := p.InstrAt(int(log[step]))
						reg := in.A
						if reg == ir.NoReg {
							reg = max(in.Dst, 0)
						}
						bit := []uint8{40, 3, 62}[j]
						faults := []interp.Fault{
							{Step: step, Bit: bit, Kind: interp.FaultDst},
							{Step: step, Bit: bit, Kind: interp.FaultReg, Reg: reg},
							{Step: step, Bit: bit, Kind: interp.FaultMem, Addr: memAddrFrom(&clean.Recs, step)},
						}
						if j == 0 && s > 0 {
							// A wild operand flipped in just before the
							// sequence reaches it fused: a wild address
							// must stop the sequence before its load or
							// store, so the plain handler crashes.
							next := p.InstrAt(int(log[s+1]))
							wild := next.A
							if wild == in.Dst {
								wild = next.B
							}
							faults = append(faults, interp.Fault{Step: s - 1, Bit: 40, Kind: interp.FaultReg, Reg: max(wild, 0)})
						}
						var dstWant runResult
						for i := range faults {
							f := faults[i]
							want := run(interp.TraceFull, &f, 0)
							check(fmt.Sprintf("%s at step %d (+%d): %v", kind, step, j, &f), run(interp.TraceOff, &f, 0), want)
							if i == 0 {
								dstWant = want
							}
						}

						check(fmt.Sprintf("%s at step %d (+%d): StepLimit", kind, step, j),
							run(interp.TraceOff, nil, step), run(interp.TraceFull, nil, step))

						pm, err := a.NewMachine()
						if err != nil {
							t.Fatal(err)
						}
						if paused, err := pm.RunUntil(step); err != nil || !paused || pm.Steps() != step {
							t.Fatalf("%s: RunUntil(%d) paused %v at %d: %v", kind, step, paused, pm.Steps(), err)
						}
						snap, err := pm.Snapshot()
						if err != nil {
							t.Fatal(err)
						}
						rm, err := a.NewMachine()
						if err != nil {
							t.Fatal(err)
						}
						if err := rm.Restore(snap); err != nil {
							t.Fatal(err)
						}
						rm.Fault = &faults[0]
						tr, err := rm.Resume()
						if err != nil {
							t.Fatal(err)
						}
						check(fmt.Sprintf("%s at step %d (+%d): paused, restored, %v", kind, step, j, &faults[0]),
							resultOf(rm, tr), dstWant)
					}
				}
			}
			trace.PutRecs(clean.Recs)
		})
	}
}
