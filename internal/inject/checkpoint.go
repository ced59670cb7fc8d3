package inject

import (
	"context"
	"fmt"
	"sort"

	"fliptracker/internal/interp"
)

// DefaultMaxCheckpoints bounds the prefix snapshots a campaign keeps live.
// Snapshots are copy-on-write page tables, so a checkpoint costs O(pages) pointers up
// front and pins only the pages the machine dirties between neighboring
// checkpoints — the budget is a backstop against pathological fault
// populations, not a memory-thinning knob, and is set high enough that
// every distinct fault step in realistic campaigns gets its exact nearest
// checkpoint.
const DefaultMaxCheckpoints = 4096

// planCheckpoints shares fault-free prefix work across injections. For a
// fault at dynamic step N, the first N steps are identical to the fault-free
// run; a from-scratch run re-executes them for every injection. Here the
// pre-drawn faults are sorted by target step, one machine runs the
// fault-free prefix forward exactly once — pausing to lay checkpoints at
// adaptive intervals (dense where faults cluster, absent where none land) —
// and each injection run restores the nearest checkpoint at or before its
// fault step and resumes from there. Every run then costs restore + (fault
// step − checkpoint step) + post-fault tail instead of a whole-program
// replay. An untraced run also stops early once its state equals a later
// checkpoint's (see resume in campaign.go): from there it would replay the
// clean run's tail, so its cost drops to restore + the steps until it
// reconverges, when it does.
//
// Because restored runs are bit-identical to from-scratch runs and the fault
// stream is drawn before scheduling, the outcomes — and thus the Result —
// are exactly those of from-scratch runs (RunOne) of the same faults.
//
// The forward pass honors ctx between checkpoints, so cancellation during
// planning is prompt.
//
// snaps[i] receives fault i's checkpoint, or stays nil for a run from
// step 0 (a fault before the first checkpoint). Only the indices from first
// on are planned: a journal's replayed prefix never runs, so it neither
// forces checkpoints nor needs one — the forward pass stops at the last
// planned fault's step.
//
// It returns the distinct checkpoints in ascending step order.
func (c *Campaign) planCheckpoints(ctx context.Context, faults []interp.Fault, first int, snaps []*interp.Snapshot) ([]*interp.Snapshot, error) {
	order := make([]int, 0, len(faults)-first)
	for i := first; i < len(faults); i++ {
		order = append(order, i)
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

	var last *interp.Snapshot
	var cps []*interp.Snapshot
	baseLive := true
	for _, idx := range order {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		fstep := faults[idx].Step
		if baseLive && (last == nil || fstep-last.Step() > interval) {
			paused, err := base.RunUntil(fstep)
			if err != nil {
				return nil, fmt.Errorf("inject: checkpoint prefix: %w", err)
			}
			if paused {
				if last, err = base.Snapshot(); err != nil {
					return nil, fmt.Errorf("inject: checkpoint: %w", err)
				}
				cps = append(cps, last)
			} else {
				// The fault-free run terminated before this fault's step;
				// no later checkpoint is reachable. Later faults resume
				// from the last checkpoint and replay the shared suffix.
				baseLive = false
			}
		}
		snaps[idx] = last
	}
	return cps, nil
}
