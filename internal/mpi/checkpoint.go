package mpi

import (
	"context"
	"fmt"
	"sort"

	"fliptracker/internal/interp"
	"fliptracker/internal/trace"
)

// DefaultMaxWorldCheckpoints bounds the world snapshots a campaign keeps
// live. A world snapshot is a copy-on-write page table per rank (O(ranks × pages) pointers; dirty
// pages are shared between neighboring checkpoints), so the bound is a
// backstop against pathological cut counts rather than a memory-thinning
// knob: at the default, every collective round a fault wants gets its own
// checkpoint and the even-thinning path below is effectively retired.
const DefaultMaxWorldCheckpoints = 256

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
// fault-free world pausing at each cut some fault wants (at most budget of
// them, evenly thinned when faults want more), and each injection restores
// the nearest snapshot at or before its fault step and resumes from there.
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
	want := make(map[int]bool, rounds)
	for _, i := range live {
		if k := bestRound(faults[i].Step); k >= 0 {
			want[k] = true
		}
	}
	if len(want) == 0 {
		return nil, nil
	}
	desired := make([]int, 0, len(want))
	for k := range want { //ftlint:ok keys collected then sorted below
		desired = append(desired, k)
	}
	sort.Ints(desired)

	budget := c.maxCheckpoints
	if budget <= 0 {
		budget = DefaultMaxWorldCheckpoints
	}
	selected := desired
	if len(desired) > budget {
		// Thin evenly, always keeping the last cut (late-window faults gain
		// the most from it); dropped cuts just lengthen some faults' resumed
		// replay distance, never change results.
		selected = make([]int, 0, budget)
		for i := 0; i < budget; i++ {
			k := desired[i*len(desired)/budget]
			if len(selected) == 0 || k > selected[len(selected)-1] {
				selected = append(selected, k)
			}
		}
		if last := desired[len(desired)-1]; selected[len(selected)-1] != last {
			selected[len(selected)-1] = last
		}
	}

	snaps, err := SnapshotWorld(ctx, c.prog, c.base, c.clean, selected)
	if err != nil {
		return nil, fmt.Errorf("mpi: world checkpoints: %w", err)
	}
	plan := &worldPlan{snaps: snaps, assign: make([]int, len(faults))}
	for i := range plan.assign {
		plan.assign[i] = -1
	}
	for _, i := range live {
		step := faults[i].Step
		// The nearest SELECTED cut at or before the fault.
		for si := len(selected) - 1; si >= 0; si-- {
			if faultCuts[selected[si]] <= step {
				plan.assign[i] = si
				break
			}
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
			prefix := c.cleanPrefix(rank, snap.CutStep(rank))
			m.PrimeTrace(prefix, uint64(c.clean.Ranks[rank].Trace.Recs.Len())+64)
		}
	}
	return RestoreWorld(c.prog, cfg, snap, prime)
}

// cleanPrefix returns rank's clean-trace records covering dynamic steps
// below step — exactly the records a traced run laid down before a world cut
// taken at that step on that rank.
func (c *Campaign) cleanPrefix(rank int, step uint64) trace.Recs {
	recs := &c.clean.Ranks[rank].Trace.Recs
	k := sort.Search(recs.Len(), func(i int) bool { return recs.Step(i) >= step })
	return recs.Slice(0, k)
}
