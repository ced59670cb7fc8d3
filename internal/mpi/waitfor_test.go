package mpi

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"fliptracker/internal/ir"
	"fliptracker/internal/trace"
)

// TestPartialCycleWithStrandedCollectiveMessage: a recv cycle among live
// ranks while an undelivered message for an uninvolved party sits queued
// for a rank blocked in a collective. Rank 0 busy-works, strands a message
// in rank 2's queue, then waits on rank 1; rank 1 waits on rank 0 (the
// cycle); rank 2 entered the barrier first and never receives. A world
// whose deadlock rule let any undelivered message veto the declaration hung
// forever here; every rank must fail deterministically.
func TestPartialCycleWithStrandedCollectiveMessage(t *testing.T) {
	p := ir.NewProgram("waitfor")
	DeclareHosts(p)
	buf := p.AllocGlobal("buf", 1, ir.F64)
	sink := p.AllocGlobal("sink", 1, ir.F64)
	b := p.NewFunc("main", 0)
	rank := b.Host(HostRank, 0, true)
	addr := b.ConstI(buf.Addr)
	one := b.ConstI(1)
	isZero := b.ICmp(ir.OpICmpEQ, rank, b.ConstI(0))
	isOne := b.ICmp(ir.OpICmpEQ, rank, b.ConstI(1))
	b.IfElse(isZero, func() {
		// Rank 0: give rank 2 time to enter the barrier (the outcome is the
		// same under either interleaving; the delay makes the stranded-
		// message path the overwhelmingly likely one), strand a message in
		// its queue, then join the cycle.
		b.ForI(0, 5000, func(i ir.Reg) {
			b.StoreG(sink, b.ConstI(0), b.SIToFP(i))
		})
		b.Host(HostSend, 3, false, b.ConstI(2), addr, one)
		b.Host(HostRecv, 3, false, b.ConstI(1), addr, one)
	}, func() {
		b.IfElse(isOne, func() {
			// Rank 1: wait on rank 0 — a cycle with it.
			b.Host(HostRecv, 3, false, b.ConstI(0), addr, one)
		}, func() {
			// Rank 2: enter the collective at once; it never receives.
			b.Host(HostBarrier, 0, false)
		})
	})
	b.RetVoid()
	b.Done()
	if err := p.Seal(); err != nil {
		t.Fatal(err)
	}
	allCrashDeterministically(t, p, 3, "partial wait-for cycle with stranded collective-bound message")
}

// within runs f and fails the test if it does not return within 10 s: the
// worlds below hung forever under earlier designs of the world.
func within[T any](t *testing.T, what string, f func() T) T {
	t.Helper()
	done := make(chan T, 1)
	go func() { done <- f() }()
	select {
	case v := <-done:
		return v
	case <-time.After(10 * time.Second):
		t.Fatalf("%s hung", what)
		panic("unreachable")
	}
}

// runWithin runs p on a world of n ranks, failing the test if the run errors
// or hangs.
func runWithin(t *testing.T, what string, p *ir.Program, n int) *Result {
	t.Helper()
	type outcome struct {
		res *Result
		err error
	}
	o := within(t, what, func() outcome {
		r, err := Run(p, Config{Ranks: n, Seed: 1})
		return outcome{r, err}
	})
	if o.err != nil {
		t.Fatal(o.err)
	}
	return o.res
}

// allCrashDeterministically runs p 20 times on a world of n ranks and
// requires every rank to crash at the same step on every run.
func allCrashDeterministically(t *testing.T, p *ir.Program, n int, what string) {
	t.Helper()
	var first string
	for i := 0; i < 20; i++ {
		d := ""
		for r, rr := range runWithin(t, what, p, n).Ranks {
			if rr.Trace.Status != trace.RunCrashed {
				t.Fatalf("%s: rank %d status %v, want crashed (every rank is stuck)", what, r, rr.Trace.Status)
			}
			d += fmt.Sprintf(" %d", rr.Trace.Steps)
		}
		if i == 0 {
			first = d
		} else if d != first {
			t.Fatalf("%s: run %d steps%s, want%s (teardown nondeterministic)", what, i, d, first)
		}
	}
	t.Logf("%s: every rank crashed, steps%s", what, first)
}

// TestTwoRankStrandedCollectiveMessage is the minimal shape of the same gap:
// rank 0 sends to rank 1 and then waits for a reply; rank 1 is in a barrier
// and will never receive or respond. The message stays queued forever, the
// barrier can never complete — the world must terminate with both ranks
// failed, not hang.
func TestTwoRankStrandedCollectiveMessage(t *testing.T) {
	p := ir.NewProgram("waitfor2")
	DeclareHosts(p)
	buf := p.AllocGlobal("buf", 1, ir.F64)
	sink := p.AllocGlobal("sink", 1, ir.F64)
	b := p.NewFunc("main", 0)
	rank := b.Host(HostRank, 0, true)
	addr := b.ConstI(buf.Addr)
	one := b.ConstI(1)
	isZero := b.ICmp(ir.OpICmpEQ, rank, b.ConstI(0))
	b.IfElse(isZero, func() {
		b.ForI(0, 5000, func(i ir.Reg) {
			b.StoreG(sink, b.ConstI(0), b.SIToFP(i))
		})
		b.Host(HostSend, 3, false, b.ConstI(1), addr, one)
		b.Host(HostRecv, 3, false, b.ConstI(1), addr, one)
	}, func() {
		b.Host(HostBarrier, 0, false)
	})
	b.RetVoid()
	b.Done()
	if err := p.Seal(); err != nil {
		t.Fatal(err)
	}
	allCrashDeterministically(t, p, 2, "stranded message at a collective-blocked rank")
}

// TestFullQueueToCollectiveWaiter: rank 0 sends more messages to rank 1 than
// one queue holds, then joins a barrier that rank 1 entered at once. Rank
// 1 never receives, so rank 0 waits on a full queue while rank 1 waits on
// the round: both must crash, at the same steps on every run. A world that
// did not count a sender waiting on a full queue as blocked never returned
// here.
func TestFullQueueToCollectiveWaiter(t *testing.T) {
	p := ir.NewProgram("fullqueue")
	DeclareHosts(p)
	buf := p.AllocGlobal("buf", 1, ir.F64)
	b := p.NewFunc("main", 0)
	rank := b.Host(HostRank, 0, true)
	isZero := b.ICmp(ir.OpICmpEQ, rank, b.ConstI(0))
	b.If(isZero, func() {
		b.ForI(0, queueCap+76, func(ir.Reg) {
			b.Host(HostSend, 3, false, b.ConstI(1), b.ConstI(buf.Addr), b.ConstI(1))
		})
	})
	b.Host(HostBarrier, 0, false)
	b.RetVoid()
	b.Done()
	if err := p.Seal(); err != nil {
		t.Fatal(err)
	}
	allCrashDeterministically(t, p, 2, "full queue to a rank waiting in a collective")
}

// TestSnapshotWorldDivergentPassFails: a snapshot pass whose cuts do not
// match the program must end in an error, not a hang. Rank 0's round-1 cut
// is forged to fall 3 steps after its round-0 cut, inside the work that
// precedes its send, so rank 1 waits on a rank parked at its cut.
func TestSnapshotWorldDivergentPassFails(t *testing.T) {
	p := ir.NewProgram("divergent")
	DeclareHosts(p)
	buf := p.AllocGlobal("buf", 1, ir.F64)
	b := p.NewFunc("main", 0)
	rank := b.Host(HostRank, 0, true)
	addr := b.ConstI(buf.Addr)
	one := b.ConstI(1)
	b.Host(HostBarrier, 0, false)
	b.IfElse(b.ICmp(ir.OpICmpEQ, rank, b.ConstI(0)), func() {
		b.ForI(0, 50, func(i ir.Reg) {
			b.StoreGI(buf, 0, b.SIToFP(i))
		})
		b.Host(HostSend, 3, false, b.ConstI(1), addr, one)
	}, func() {
		b.Host(HostRecv, 3, false, b.ConstI(0), addr, one)
	})
	b.Host(HostBarrier, 0, false)
	b.RetVoid()
	b.Done()
	if err := p.Seal(); err != nil {
		t.Fatal(err)
	}
	cfg := Config{Ranks: 2, Seed: 1}
	clean, err := Run(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Status() != trace.RunOK {
		t.Fatalf("clean world %v", clean.Status())
	}
	forged := *clean
	forged.Cuts = [][]uint64{append([]uint64(nil), clean.Cuts[0]...), clean.Cuts[1]}
	forged.Cuts[0][1] = forged.Cuts[0][0] + 3
	err = within(t, "divergent snapshot pass", func() error {
		_, err := SnapshotWorld(context.Background(), p, cfg, &forged, []int{1})
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "world terminated before collective round 1") {
		t.Fatalf("divergent pass: err = %v, want world terminated before collective round 1", err)
	}
}

// TestQueueBoundIsPerPair: a full queue from one sender must not hold up
// another sender to the same rank. Rank 1 fills its queue to rank 0, tells
// rank 2, and keeps sending; rank 2 then sends one message to rank 0, which
// receives it before draining rank 1's. With one bound per destination,
// rank 2's send would wait behind rank 1's messages and the world would
// deadlock; with one per pair it completes.
func TestQueueBoundIsPerPair(t *testing.T) {
	p := ir.NewProgram("perpair")
	DeclareHosts(p)
	buf := p.AllocGlobal("buf", 1, ir.F64)
	acc := p.AllocGlobal("acc", 1, ir.F64)
	b := p.NewFunc("main", 0)
	rank := b.Host(HostRank, 0, true)
	addr := b.ConstI(buf.Addr)
	one := b.ConstI(1)
	sendI := func(dst int64, i ir.Reg) {
		b.StoreGI(buf, 0, b.SIToFP(i))
		b.Host(HostSend, 3, false, b.ConstI(dst), addr, one)
	}
	recvAcc := func(src int64) {
		b.Host(HostRecv, 3, false, b.ConstI(src), addr, one)
		b.StoreGI(acc, 0, b.FAdd(b.LoadGI(acc, 0), b.LoadGI(buf, 0)))
	}
	b.IfElse(b.ICmp(ir.OpICmpEQ, rank, b.ConstI(0)), func() {
		recvAcc(2)
		b.ForI(0, queueCap+76, func(ir.Reg) { recvAcc(1) })
		b.Emit(ir.F64, b.LoadGI(acc, 0))
	}, func() {
		b.IfElse(b.ICmp(ir.OpICmpEQ, rank, b.ConstI(1)), func() {
			b.ForI(0, queueCap, func(i ir.Reg) { sendI(0, i) })
			sendI(2, b.ConstI(0))
			b.ForI(queueCap, queueCap+76, func(i ir.Reg) { sendI(0, i) })
		}, func() {
			b.Host(HostRecv, 3, false, b.ConstI(1), addr, one)
			sendI(0, b.ConstI(7))
		})
	})
	b.RetVoid()
	b.Done()
	if err := p.Seal(); err != nil {
		t.Fatal(err)
	}
	res := runWithin(t, "per-pair queue world", p, 3)
	if res.Status() != trace.RunOK {
		t.Fatalf("world status %v, want ok (a full queue from rank 1 held up rank 2)", res.Status())
	}
	const n = queueCap + 76
	if got, want := res.Ranks[0].Trace.Output[0].Float(), float64(7+n*(n-1)/2); got != want {
		t.Fatalf("rank 0 received sum %v, want %v", got, want)
	}
}
