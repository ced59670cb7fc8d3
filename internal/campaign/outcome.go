package campaign

import (
	"fmt"
	"math/rand"

	"fliptracker/internal/interp"
	"fliptracker/internal/trace"
)

// Outcome is one fault manifestation.
type Outcome uint8

const (
	// Success: the run completed and passed verification (§II-A case a/b).
	Success Outcome = iota
	// Failed: the run completed but verification rejected the output (SDC).
	Failed
	// Crashed: the run crashed or hung.
	Crashed
	// NotApplied: the fault never fired (e.g. the target step was never
	// reached because problem size shrank). Excluded from the rate.
	NotApplied
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case Success:
		return "success"
	case Failed:
		return "failed"
	case Crashed:
		return "crashed"
	case NotApplied:
		return "not-applied"
	}
	return fmt.Sprintf("outcome(%d)", uint8(o))
}

// Classify maps a finished run to its §II-A manifestation. A crash or hang
// dominates; otherwise verified decides, and a verified run whose fault
// never fired counts NotApplied rather than Success (only the machine knows
// whether it fired: a tolerated flip and a flip that never happened leave
// the same output). verified is called once, and only for a completed run.
// Both engines and the per-fault analyses classify through this one
// function, so an analyzed fault carries the outcome its campaign counts.
func Classify(status trace.RunStatus, applied bool, verified func() bool) Outcome {
	if status == trace.RunCrashed || status == trace.RunHang {
		return Crashed
	}
	switch {
	case !verified():
		return Failed
	case !applied:
		return NotApplied
	}
	return Success
}

// Result aggregates campaign outcomes.
type Result struct {
	Tests      int
	Success    int
	Failed     int
	Crashed    int
	NotApplied int
}

// SuccessRate is Equation 1: Verification Successes over all tests.
func (r Result) SuccessRate() float64 {
	if r.Tests == 0 {
		return 0
	}
	return float64(r.Success) / float64(r.Tests)
}

// CrashRate is the fraction of runs that crashed or hung.
func (r Result) CrashRate() float64 {
	if r.Tests == 0 {
		return 0
	}
	return float64(r.Crashed) / float64(r.Tests)
}

// Add accumulates another result into r.
func (r *Result) Add(o Result) {
	r.Tests += o.Tests
	r.Success += o.Success
	r.Failed += o.Failed
	r.Crashed += o.Crashed
	r.NotApplied += o.NotApplied
}

// Count tallies one outcome — the streaming analog of Add, for consumers
// aggregating Campaign.Stream themselves.
func (r *Result) Count(o Outcome) {
	r.Tests++
	switch o {
	case Success:
		r.Success++
	case Failed:
		r.Failed++
	case Crashed:
		r.Crashed++
	case NotApplied:
		r.NotApplied++
	}
}

// TargetPicker draws one fault from the campaign's injection-site population.
type TargetPicker interface {
	Pick(r *rand.Rand) interp.Fault
}

// Validator lets a TargetPicker reject an empty population at campaign
// construction time. New calls Validate when the picker implements it;
// pickers with nothing to draw from must also degrade gracefully in Pick (a
// never-firing fault rather than a panic) for callers that build them
// directly.
type Validator interface {
	Validate() error
}

// IndexedPicker lets a TargetPicker draw by position in the campaign's
// pre-drawn fault stream instead of purely from randomness. When the picker
// implements it, the campaign calls PickAt(i, r) for the i-th fault
// (i = 0..tests-1); pickers stay stateless, so a Campaign remains safe to
// run multiple times with identical streams.
type IndexedPicker interface {
	PickAt(i int, r *rand.Rand) interp.Fault
}
