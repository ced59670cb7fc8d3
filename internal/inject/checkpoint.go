package inject

import (
	"context"
	"fmt"
	"sort"

	"fliptracker/internal/interp"
	"fliptracker/internal/trace"
)

// DefaultMaxCheckpoints bounds the prefix snapshots a campaign keeps live.
// Snapshots are copy-on-write page tables, so a checkpoint costs O(pages) pointers up
// front and pins only the pages the machine dirties between neighboring
// checkpoints — the budget is a backstop against pathological fault
// populations, not a memory-thinning knob, and is set high enough that
// every distinct fault step in realistic campaigns gets its exact nearest
// checkpoint.
const DefaultMaxCheckpoints = 4096

// checkpointPlan is a campaign window's shared state: the prefix
// snapshots laid down by one forward pass of the fault-free run, and the
// per-fault assignment of the nearest snapshot at or before its step.
type checkpointPlan struct {
	snaps []*interp.Snapshot
	// assign maps fault index -> snapshot index; -1 replays from step 0.
	assign []int
}

// planCheckpoints shares fault-free prefix work across injections. For a
// fault at dynamic step N, the first N steps are identical to the fault-free
// run; a from-scratch run re-executes them for every injection. Here the
// pre-drawn faults are sorted by target step, one machine runs the
// fault-free prefix forward exactly once — pausing to lay checkpoints at
// adaptive intervals (dense where faults cluster, absent where none land) —
// and each injection run restores the nearest checkpoint at or before its
// fault step and resumes from there. Every run then costs restore + (fault
// step − checkpoint step) + post-fault tail instead of a whole-program
// replay.
//
// Because restored runs are bit-identical to from-scratch runs and the fault
// stream is drawn before scheduling, the outcomes — and thus the Result —
// are exactly those of from-scratch runs (RunOne) of the same faults.
//
// The forward pass honors ctx between checkpoints, so cancellation during
// planning is prompt.
//
// Only the live indices, order, are planned, and they are sorted in place:
// indices outside their window belong to other shards (or a journal's
// replayed prefix) and statically pruned ones never run, so they neither
// force checkpoints nor need assignments — a sharded campaign's forward
// passes each cover just their own window's fault steps.
func (c *Campaign) planCheckpoints(ctx context.Context, faults []interp.Fault, order []int) (*checkpointPlan, error) {
	n := len(faults)
	if len(order) == 0 {
		// Everything pruned: no prefix pass needed.
		plan := &checkpointPlan{assign: make([]int, n)}
		for i := range plan.assign {
			plan.assign[i] = -1
		}
		return plan, nil
	}
	sort.Slice(order, func(a, b int) bool {
		if faults[order[a]].Step != faults[order[b]].Step {
			return faults[order[a]].Step < faults[order[b]].Step
		}
		return order[a] < order[b]
	})

	budget := c.maxCheckpoints
	if budget <= 0 {
		budget = DefaultMaxCheckpoints
	}
	// Spreading the budget over the faulted span caps the per-run replay
	// distance near span/budget while clustered faults (region-entry
	// campaigns aim thousands of flips at one step) share one checkpoint.
	// The interval is maxStep/budget, so it is 0 only for runs shorter than
	// the budget; on the shipped apps the default budget gives 11–91 steps
	// (mg 48,929 steps → 11, cg 374,782 → 91). A fault within an interval
	// of the previous checkpoint shares it and replays the gap.
	maxStep := faults[order[len(order)-1]].Step
	interval := maxStep / uint64(budget)

	base, err := c.mk()
	if err != nil {
		return nil, fmt.Errorf("inject: make machine: %w", err)
	}
	base.Mode = interp.TraceOff

	plan := &checkpointPlan{assign: make([]int, n)}
	for i := range plan.assign {
		plan.assign[i] = -1
	}
	baseLive := true
	for _, idx := range order {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		fstep := faults[idx].Step
		if baseLive && (len(plan.snaps) == 0 || fstep-plan.snaps[len(plan.snaps)-1].Step() > interval) {
			paused, err := base.RunUntil(fstep)
			if err != nil {
				return nil, fmt.Errorf("inject: checkpoint prefix: %w", err)
			}
			if paused {
				snap, err := base.Snapshot()
				if err != nil {
					return nil, fmt.Errorf("inject: checkpoint: %w", err)
				}
				plan.snaps = append(plan.snaps, snap)
			} else {
				// The fault-free run terminated before this fault's step;
				// no later checkpoint is reachable. Later faults resume
				// from the last checkpoint and replay the shared suffix.
				baseLive = false
			}
		}
		if len(plan.snaps) > 0 {
			plan.assign[idx] = len(plan.snaps) - 1
		}
	}
	return plan, nil
}

// runFault executes one injection from its assigned checkpoint (or from
// step 0 when none is assigned) and classifies it.
func (p *checkpointPlan) runFault(c *Campaign, i int, f interp.Fault) (Outcome, any, error) {
	snapIdx := p.assign[i]
	if c.analyze != nil {
		// Analyzed campaign: run traced from the checkpoint, stitching the
		// clean prefix in front of the recorded suffix.
		var snap *interp.Snapshot
		if snapIdx >= 0 {
			snap = p.snaps[snapIdx]
		}
		return c.runTraced(i, f, snap)
	}
	if snapIdx < 0 {
		o, err := RunOne(c.mk, c.verify, f)
		return o, nil, err
	}
	m, err := c.mk()
	if err != nil {
		return NotApplied, nil, fmt.Errorf("inject: make machine: %w", err)
	}
	m.Mode = interp.TraceOff
	m.Fault = &f
	var tr *trace.Trace
	if rerr := m.Restore(p.snaps[snapIdx]); rerr == nil {
		tr, err = m.Resume()
	} else {
		// Restore can only fail when MakeMachine rebuilds its program
		// per call, so snapshots cannot be shared; replay this same
		// (still unstarted) machine from step 0, which is always
		// correct.
		tr, err = m.Run()
	}
	if err != nil {
		return NotApplied, nil, fmt.Errorf("inject: injection run: %w", err)
	}
	return classify(m, tr, c.verify), nil, nil
}
