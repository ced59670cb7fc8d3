package mpi

import (
	"context"
	"fmt"
	"sort"

	"fliptracker/internal/interp"
)

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
// snapAt[i] receives fault i's world snapshot, or stays nil for a replay
// from step 0: the program has no collective rounds, the clean world carries
// no cut logs, or the fault lands before the first cut. Only the live
// indices are planned: a journal's replayed prefix and the faults that
// cannot fire never run, so they request no cuts.
func (c *Campaign) planWorldCheckpoints(ctx context.Context, faults []interp.Fault, live []int, snapAt []*WorldSnapshot) error {
	if len(c.clean.Cuts) != c.base.Ranks {
		// An adopted clean Result without cut logs (WithClean on a Result
		// assembled outside mpi.Run, e.g. rebuilt from persisted traces):
		// no boundaries to cut at, so replay from step 0.
		return nil
	}
	rounds := len(c.clean.Cuts[c.base.FaultRank])
	for _, cl := range c.clean.Cuts {
		if len(cl) < rounds {
			rounds = len(cl)
		}
	}
	if rounds == 0 {
		return nil
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
		return nil
	}

	snaps, err := SnapshotWorld(ctx, c.prog, c.base, c.clean, desired)
	if err != nil {
		return fmt.Errorf("mpi: world checkpoints: %w", err)
	}
	for _, i := range live {
		if k := bestRound(faults[i].Step); k >= 0 {
			snapAt[i] = snaps[sort.SearchInts(desired, k)]
		}
	}
	return nil
}
