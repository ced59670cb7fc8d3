package mpi_test

// World-level Snapshot/Restore property tests, mirroring the single-machine
// suite in internal/interp/snapshot_test.go: snapshots taken at collective
// boundaries must resume bit-identically — across programs (point-to-point
// crossing the cut, wildcard receives with a live replay cursor, real apps),
// rank counts, trace modes, and faults that complete, corrupt, or crash the
// restored world.

import (
	"context"
	"reflect"
	"testing"

	"fliptracker/internal/apps"
	"fliptracker/internal/interp"
	"fliptracker/internal/ir"
	"fliptracker/internal/mpi"
	"fliptracker/internal/trace"
)

// buildCrossProg builds a world where point-to-point messages cross a
// collective boundary: every rank sends to its ring neighbor BEFORE the
// middle allreduce and receives AFTER it, so a snapshot at that cut must
// carry one undelivered message per rank.
func buildCrossProg(t testing.TB, ranks int) *ir.Program {
	t.Helper()
	p := ir.NewProgram("crosscut")
	mpi.DeclareHosts(p)
	vec := p.AllocGlobal("vec", 2, ir.F64)
	buf := p.AllocGlobal("buf", 1, ir.F64)
	b := p.NewFunc("main", 0)
	rank := b.Host(mpi.HostRank, 0, true)
	size := b.Host(mpi.HostSize, 0, true)
	rf := b.SIToFP(rank)
	b.StoreGI(vec, 0, b.FMul(rf, b.ConstF(1.25)))
	b.StoreGI(vec, 1, b.FAdd(rf, b.ConstF(0.5)))
	addr := b.ConstI(vec.Addr)
	two := b.ConstI(2)
	b.Host(mpi.HostAllreduceSum, 2, false, addr, two) // round 0
	// Send before round 1, receive after it: in flight at the cut.
	b.StoreGI(buf, 0, b.LoadGI(vec, 0))
	dst := b.SRem(b.Add(rank, b.ConstI(1)), size)
	src := b.SRem(b.Add(rank, b.Sub(size, b.ConstI(1))), size)
	baddr := b.ConstI(buf.Addr)
	one := b.ConstI(1)
	b.Host(mpi.HostSend, 3, false, dst, baddr, one)
	b.Host(mpi.HostAllreduceSum, 2, false, addr, two) // round 1
	b.Host(mpi.HostRecv, 3, false, src, baddr, one)
	b.StoreGI(vec, 1, b.FAdd(b.LoadGI(vec, 1), b.LoadGI(buf, 0)))
	b.Host(mpi.HostAllreduceSum, 2, false, addr, two) // round 2
	b.Emit(ir.F64, b.LoadGI(vec, 0))
	b.Emit(ir.F64, b.LoadGI(vec, 1))
	b.Emit(ir.F64, b.LoadGI(buf, 0))
	b.RetVoid()
	b.Done()
	if err := p.Seal(); err != nil {
		t.Fatal(err)
	}
	return p
}

// buildAnyProg exercises the wildcard-receive replay cursor across a cut:
// every non-zero rank sends to rank 0 up front; rank 0 consumes one message
// by wildcard receive between rounds 0 and 1 (so the cursor is mid-log at
// the round-1 cut) and the rest after round 1.
func buildAnyProg(t testing.TB, ranks int) *ir.Program {
	t.Helper()
	p := ir.NewProgram("anycut")
	mpi.DeclareHosts(p)
	ck := p.AllocGlobal("ck", 1, ir.F64)
	buf := p.AllocGlobal("buf", 1, ir.F64)
	acc := p.AllocGlobal("acc", 1, ir.F64)
	b := p.NewFunc("main", 0)
	rank := b.Host(mpi.HostRank, 0, true)
	baddr := b.ConstI(buf.Addr)
	ckaddr := b.ConstI(ck.Addr)
	one := b.ConstI(1)
	isZero := b.ICmp(ir.OpICmpEQ, rank, b.ConstI(0))
	b.IfElse(isZero, func() {}, func() {
		b.StoreGI(buf, 0, b.FMul(b.SIToFP(rank), b.ConstF(3.5)))
		b.Host(mpi.HostSend, 3, false, b.ConstI(0), baddr, one)
	})
	b.StoreGI(ck, 0, b.ConstF(1))
	b.Host(mpi.HostAllreduceSum, 2, false, ckaddr, one) // round 0
	recvAcc := func() {
		src := b.Host(mpi.HostRecvAny, 2, true, baddr, one)
		v := b.FMul(b.LoadGI(buf, 0), b.FAdd(b.SIToFP(src), b.ConstF(1)))
		b.StoreGI(acc, 0, b.FAdd(b.LoadGI(acc, 0), v))
	}
	b.If(isZero, recvAcc)                               // cursor is mid-log at the next cut
	b.Host(mpi.HostAllreduceSum, 2, false, ckaddr, one) // round 1
	b.If(isZero, func() {
		b.ForI(0, int64(ranks-2), func(_ ir.Reg) { recvAcc() })
	})
	b.Host(mpi.HostAllreduceSum, 2, false, ckaddr, one) // round 2
	b.Emit(ir.F64, b.LoadGI(acc, 0))
	b.Emit(ir.F64, b.LoadGI(ck, 0))
	b.RetVoid()
	b.Done()
	if err := p.Seal(); err != nil {
		t.Fatal(err)
	}
	return p
}

// sameRankTrace compares one rank's restored trace against the direct
// replay, record for record.
func sameRankTrace(t *testing.T, label string, rank int, got, want *trace.Trace) {
	t.Helper()
	if got.Status != want.Status {
		t.Errorf("%s rank %d: status = %v, want %v", label, rank, got.Status, want.Status)
	}
	if got.Steps != want.Steps {
		t.Errorf("%s rank %d: steps = %d, want %d", label, rank, got.Steps, want.Steps)
	}
	if !reflect.DeepEqual(got.Output, want.Output) {
		t.Errorf("%s rank %d: output differs: %v vs %v", label, rank, got.Output, want.Output)
	}
	if got.Recs.Len() != want.Recs.Len() {
		t.Errorf("%s rank %d: %d records, want %d", label, rank, got.Recs.Len(), want.Recs.Len())
		return
	}
	for i := 0; i < got.Recs.Len(); i++ {
		if got.Recs.At(i) != want.Recs.At(i) {
			t.Errorf("%s rank %d: record %d differs: %+v vs %+v", label, rank, i, got.Recs.At(i), want.Recs.At(i))
			return
		}
	}
}

func sameWorld(t *testing.T, label string, got, want *mpi.Result) {
	t.Helper()
	for r := range want.Ranks {
		sameRankTrace(t, label, r, got.Ranks[r].Trace, want.Ranks[r].Trace)
		if got.Ranks[r].FaultApplied != want.Ranks[r].FaultApplied {
			t.Errorf("%s rank %d: FaultApplied = %v, want %v", label, r,
				got.Ranks[r].FaultApplied, want.Ranks[r].FaultApplied)
		}
	}
	if !reflect.DeepEqual(got.Recording, want.Recording) {
		t.Errorf("%s: recordings differ: %v vs %v", label, got.Recording, want.Recording)
	}
	if !reflect.DeepEqual(got.Cuts, want.Cuts) {
		t.Errorf("%s: collective cuts differ: %v vs %v", label, got.Cuts, want.Cuts)
	}
}

// allRounds returns every collective round index of a clean world.
func allRounds(t *testing.T, clean *mpi.Result) []int {
	t.Helper()
	n := len(clean.Cuts[0])
	for r, c := range clean.Cuts {
		if len(c) != n {
			t.Fatalf("clean world has ragged cuts: rank %d has %d, rank 0 has %d", r, len(c), n)
		}
	}
	rounds := make([]int, n)
	for i := range rounds {
		rounds[i] = i
	}
	return rounds
}

// TestSnapshotWorldRestoreCleanBitIdentical: restoring any collective-cut
// snapshot of a fault-free world and resuming — traced with the clean prefix
// primed, or untraced — reproduces the clean world bit for bit, including
// the wildcard-receive recording and the collective cut log.
func TestSnapshotWorldRestoreCleanBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		name  string
		prog  func(testing.TB, int) *ir.Program
		ranks int
	}{
		{"crosscut/3", buildCrossProg, 3},
		{"crosscut/2", buildCrossProg, 2},
		{"anycut/4", buildAnyProg, 4},
		{"anycut/3", buildAnyProg, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.prog(t, tc.ranks)
			cfg := mpi.Config{Ranks: tc.ranks, Seed: 11}
			ccfg := cfg
			ccfg.Mode = interp.TraceFull
			clean, err := mpi.Run(p, ccfg)
			if err != nil {
				t.Fatal(err)
			}
			if clean.Status() != trace.RunOK {
				t.Fatalf("clean world %v", clean.Status())
			}
			rounds := allRounds(t, clean)
			snaps, err := mpi.SnapshotWorld(context.Background(), p, cfg, clean, rounds)
			if err != nil {
				t.Fatal(err)
			}
			if len(snaps) != len(rounds) {
				t.Fatalf("%d snapshots, want %d", len(snaps), len(rounds))
			}
			for _, snap := range snaps {
				rcfg := cfg
				rcfg.Mode = interp.TraceFull
				rcfg.Replay = clean.Recording
				got, err := mpi.RestoreWorld(p, rcfg, snap, func(m *interp.Machine, rank int) {
					m.PrimeTrace(&clean.Ranks[rank].Trace.Recs)
				})
				if err != nil {
					t.Fatal(err)
				}
				sameWorld(t, tc.name, got, clean)

				// Untraced restore agrees on everything but records.
				ucfg := cfg
				ucfg.Replay = clean.Recording
				ugot, err := mpi.RestoreWorld(p, ucfg, snap, nil)
				if err != nil {
					t.Fatal(err)
				}
				for r := range clean.Ranks {
					if ugot.Ranks[r].Trace.Steps != clean.Ranks[r].Trace.Steps ||
						!reflect.DeepEqual(ugot.Ranks[r].Trace.Output, clean.Ranks[r].Trace.Output) {
						t.Errorf("round %d rank %d: untraced restore diverged", snap.Round(), r)
					}
				}
			}
		})
	}
}

// TestSnapshotWorldRestoreFaultyBitIdentical is the core checkpointing property:
// a faulty world resumed from a collective-cut snapshot is bit-identical to
// the same fault replayed directly from step 0 — for faults that stay
// contained, corrupt other ranks, crash the world, or never fire, on every
// rank count and at every cut at or before the fault.
func TestSnapshotWorldRestoreFaultyBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		name  string
		prog  func(testing.TB, int) *ir.Program
		ranks int
	}{
		{"crosscut/3", buildCrossProg, 3},
		{"anycut/3", buildAnyProg, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.prog(t, tc.ranks)
			const faultRank = 1
			cfg := mpi.Config{Ranks: tc.ranks, Seed: 11, FaultRank: faultRank}
			ccfg := cfg
			ccfg.Mode = interp.TraceFull
			clean, err := mpi.Run(p, ccfg)
			if err != nil {
				t.Fatal(err)
			}
			rounds := allRounds(t, clean)
			snaps, err := mpi.SnapshotWorld(context.Background(), p, cfg, clean, rounds)
			if err != nil {
				t.Fatal(err)
			}
			steps := clean.Ranks[faultRank].Trace.Steps
			var faults []interp.Fault
			for _, frac := range []uint64{8, 4, 2} {
				// A mantissa-ish bit, a sign-ish bit, and a high bit that
				// tends to produce wild addresses/loop bounds (crashes).
				for _, bit := range []uint8{3, 40, 62} {
					faults = append(faults, interp.Fault{Step: steps - steps/frac, Bit: bit, Kind: interp.FaultDst})
				}
			}
			faults = append(faults, interp.Fault{Step: steps + 1000, Bit: 1, Kind: interp.FaultDst}) // never fires
			statuses := map[trace.RunStatus]bool{}
			for _, f := range faults {
				f := f
				dcfg := cfg
				dcfg.Mode = interp.TraceFull
				dcfg.Fault = &f
				dcfg.Replay = clean.Recording
				want, err := mpi.Run(p, dcfg)
				if err != nil {
					t.Fatal(err)
				}
				statuses[want.Status()] = true
				for _, snap := range snaps {
					if snap.CutStep(faultRank) > f.Step {
						continue // the fault precedes this cut; the planner never pairs them
					}
					got, err := mpi.RestoreWorld(p, dcfg, snap, func(m *interp.Machine, rank int) {
						m.PrimeTrace(&clean.Ranks[rank].Trace.Recs)
					})
					if err != nil {
						t.Fatal(err)
					}
					sameWorld(t, f.String(), got, want)
				}
			}
			if len(statuses) < 2 {
				t.Fatalf("fault sweep too uniform to be meaningful: statuses %v", statuses)
			}
		})
	}
}

// TestSnapshotWorldRestoreApps runs the round-trip on real registered SPMD
// workloads (one collective per main-loop iteration) at two world sizes,
// with faults on the injected rank spread over the back half of the run.
func TestSnapshotWorldRestoreApps(t *testing.T) {
	for _, tc := range []struct {
		app   string
		ranks int
	}{
		{"is", 2},
		{"is", 4},
		{"cg", 3},
	} {
		t.Run(tc.app+"/"+string(rune('0'+tc.ranks)), func(t *testing.T) {
			a, ok := apps.Get(tc.app)
			if !ok {
				t.Fatalf("unknown app %q", tc.app)
			}
			p, err := a.MPIProgram()
			if err != nil {
				t.Fatal(err)
			}
			cfg := mpi.Config{
				Ranks:     tc.ranks,
				Seed:      apps.DefaultSeed,
				FaultRank: tc.ranks - 1,
				ExtraBind: func(m *interp.Machine, _ int) error { return apps.BindMathHosts(m) },
			}
			ccfg := cfg
			ccfg.Mode = interp.TraceFull
			clean, err := mpi.Run(p, ccfg)
			if err != nil {
				t.Fatal(err)
			}
			rounds := allRounds(t, clean)
			// Snapshot a middle and the last cut only (apps have one round
			// per main-loop iteration; the full matrix lives in the
			// synthetic-program tests).
			sel := []int{rounds[len(rounds)/2], rounds[len(rounds)-1]}
			snaps, err := mpi.SnapshotWorld(context.Background(), p, cfg, clean, sel)
			if err != nil {
				t.Fatal(err)
			}
			steps := clean.Ranks[cfg.FaultRank].Trace.Steps
			for i, f := range []interp.Fault{
				{Step: steps - steps/3, Bit: 40, Kind: interp.FaultDst},
				{Step: steps - steps/8, Bit: 62, Kind: interp.FaultDst},
			} {
				f := f
				dcfg := cfg
				dcfg.Fault = &f
				dcfg.Replay = clean.Recording
				want, err := mpi.Run(p, dcfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, snap := range snaps {
					if snap.CutStep(cfg.FaultRank) > f.Step {
						continue
					}
					got, err := mpi.RestoreWorld(p, dcfg, snap, nil)
					if err != nil {
						t.Fatal(err)
					}
					sameWorld(t, f.String(), got, want)
				}
				_ = i
			}
		})
	}
}

// TestSnapshotWorldValidation covers the construction error paths.
func TestSnapshotWorldValidation(t *testing.T) {
	p := buildCrossProg(t, 2)
	cfg := mpi.Config{Ranks: 2, Seed: 11}
	ccfg := cfg
	ccfg.Mode = interp.TraceFull
	clean, err := mpi.Run(p, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := mpi.SnapshotWorld(ctx, p, cfg, clean, []int{2, 1}); err == nil {
		t.Error("descending rounds should fail")
	}
	if _, err := mpi.SnapshotWorld(ctx, p, cfg, clean, []int{99}); err == nil {
		t.Error("round past the cut log should fail")
	}
	f := interp.Fault{Step: 1}
	bad := cfg
	bad.Fault = &f
	if _, err := mpi.SnapshotWorld(ctx, p, bad, clean, []int{0}); err == nil {
		t.Error("fault in the snapshot pass should fail")
	}
	snaps, err := mpi.SnapshotWorld(ctx, p, cfg, clean, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	wrong := cfg
	wrong.Ranks = 3
	wrong.FaultRank = 0
	if _, err := mpi.RestoreWorld(p, wrong, snaps[0], nil); err == nil {
		t.Error("rank-count mismatch on restore should fail")
	}
}
