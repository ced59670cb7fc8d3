package mpi

import (
	"context"
	"fmt"
	"sort"

	"fliptracker/internal/interp"
)

// worldPlan is an MPI campaign window's shared state: the world
// snapshots laid down by one forward pass of the fault-free world, and the
// per-fault assignment of the nearest snapshot at or before its step on the
// injected rank.
type worldPlan struct {
	snaps []*WorldSnapshot
	// assign maps fault index -> snapshot index; -1 replays from step 0.
	assign []int
}

// planWorldCheckpoints shares fault-free world-prefix work across
// injections — inject's checkpoint planner ported to the multi-rank path.
// For a fault at dynamic step N of the injected rank, every rank's execution
// up to the world cut preceding N is identical to the fault-free world; the
// from-scratch replay re-executes all of it for every injection. Here the
// candidate cuts are the clean world's collective boundaries (Result.Cuts —
// the only points where a consistent world snapshot is cheap: no rank inside
// a primitive, no collective state in flight), one forward pass replays the
// fault-free world pausing at each cut some fault wants, and each injection
// restores the nearest snapshot at or before its fault step and resumes from
// there. Every wanted cut gets its own snapshot, with no budget: a world
// snapshot is a copy-on-write page table per rank, and the shipped programs
// have 3–10 collective rounds.
//
// Because restored worlds are bit-identical to from-scratch replays (the world
// substrate is deterministic and WorldSnapshot captures all of it) and the
// fault stream is drawn before scheduling, the outcomes — and thus the
// Result — are exactly those of from-scratch replays of the same faults.
//
// A nil plan (with nil error) means checkpointing cannot help: the program
// has no collective rounds, the clean world's cut counts are ragged, or
// every fault lands before the first cut. Such campaigns replay every
// world from step 0.
//
// Only the live indices are planned: indices outside their window belong to
// other shards (or a journal's replayed prefix) and statically pruned ones
// never run, so they neither request cuts nor need assignments — a sharded
// campaign's forward passes each cover just their own window's fault steps.
func (c *Campaign) planWorldCheckpoints(ctx context.Context, faults []interp.Fault, live []int) (*worldPlan, error) {
	if len(c.clean.Cuts) != c.base.Ranks {
		// An adopted clean Result without cut logs (WithClean on a Result
		// assembled outside mpi.Run, e.g. rebuilt from persisted traces):
		// no boundaries to cut at, so replay from step 0.
		return nil, nil
	}
	rounds := len(c.clean.Cuts[c.base.FaultRank])
	for _, cl := range c.clean.Cuts {
		if len(cl) < rounds {
			rounds = len(cl)
		}
	}
	if rounds == 0 {
		return nil, nil
	}
	faultCuts := c.clean.Cuts[c.base.FaultRank][:rounds]

	// bestRound is the last cut at or before the fault's step on the
	// injected rank (-1: the fault precedes every cut).
	bestRound := func(step uint64) int {
		return sort.Search(rounds, func(k int) bool { return faultCuts[k] > step }) - 1
	}
	want := make([]bool, rounds)
	for _, i := range live {
		if k := bestRound(faults[i].Step); k >= 0 {
			want[k] = true
		}
	}
	var desired []int
	for k, w := range want {
		if w {
			desired = append(desired, k)
		}
	}
	if len(desired) == 0 {
		return nil, nil
	}

	snaps, err := SnapshotWorld(ctx, c.prog, c.base, c.clean, desired)
	if err != nil {
		return nil, fmt.Errorf("mpi: world checkpoints: %w", err)
	}
	plan := &worldPlan{snaps: snaps, assign: make([]int, len(faults))}
	for i := range plan.assign {
		plan.assign[i] = -1
	}
	for _, i := range live {
		if k := bestRound(faults[i].Step); k >= 0 {
			plan.assign[i] = sort.SearchInts(desired, k)
		}
	}
	return plan, nil
}

// runPlanned executes one injected world: restored from its assigned world
// snapshot when one exists, replayed from step 0 otherwise (no plan, or a
// fault before the first cut).
func (c *Campaign) runPlanned(i int, f *interp.Fault, plan *worldPlan) (*Result, error) {
	mode := c.worldMode()
	if plan == nil || plan.assign[i] < 0 {
		return c.runWorld(f, mode)
	}
	snap := plan.snaps[plan.assign[i]]
	cfg := c.base
	cfg.Mode = mode
	cfg.Fault = f
	cfg.Replay = c.clean.Recording
	var prime func(m *interp.Machine, rank int)
	if mode == interp.TraceFull {
		// Analyzed campaign: resume traced, seeding each rank's record
		// buffer with its clean prefix (the records a from-step-0 traced run
		// laid down before the cut — the pre-fault prefix is fault-free and
		// deterministic), so the stitched per-rank traces are byte-identical
		// to from-step-0 traced replays. NewCampaign only plans checkpoints for
		// analyzed campaigns when every rank's clean records are stitchable
		// (c.stitch).
		prime = func(m *interp.Machine, rank int) {
			recs := &c.clean.Ranks[rank].Trace.Recs
			m.PrimeTrace(recs.StepPrefix(snap.CutStep(rank)), uint64(recs.Len())+64)
		}
	}
	return RestoreWorld(c.prog, cfg, snap, prime)
}
