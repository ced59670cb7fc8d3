// Package inject runs fault-injection campaigns, the FlipIt analog of the
// paper (§IV-C): single bit flips into a user-specified population of
// dynamic instructions and operands, with outcomes classified into the three
// fault manifestations of §II-A (Verification Success, Verification Failed,
// Crashed) and the success-rate metric of Equation 1.
//
// A campaign is built with NewCampaign from a machine factory, a verifier
// and a TargetPicker, configured by functional options (WithTests, WithSeed,
// WithParallelism, WithProgress, WithEarlyStop, ...), and executed with Run
// or consumed fault by fault with Stream. Both accept a context.Context and
// stop promptly when it is cancelled.
//
// Campaigns share fault-free prefix work across injections via machine
// snapshots (see checkpoint.go); outcomes are those of from-step-0 runs
// (RunOne) of the same faults.
package inject

import (
	"fmt"
	"math/rand"

	"fliptracker/internal/campaign"
	"fliptracker/internal/interp"
	"fliptracker/internal/trace"
)

// The outcome, result and population types live with the campaign driver
// (internal/campaign), which both engines share; these are their names here.
type (
	// Outcome is one fault manifestation (§II-A).
	Outcome = campaign.Outcome
	// Result aggregates campaign outcomes.
	Result = campaign.Result
	// TargetPicker draws one fault from the campaign's injection-site
	// population.
	TargetPicker = campaign.TargetPicker
	// Validator lets a TargetPicker reject an empty population at campaign
	// construction time.
	Validator = campaign.Validator
)

// The fault manifestations.
const (
	Success    = campaign.Success
	Failed     = campaign.Failed
	Crashed    = campaign.Crashed
	NotApplied = campaign.NotApplied
)

// FaultList replays a fixed, hand-constructed fault sequence through the
// campaign engine — deterministic targeted studies (Table I's per-region
// spreads) get checkpointing, the worker pool, and per-fault analysis for
// free. Fault i of the stream is Faults[i mod len(Faults)]; WithTests
// normally matches len(Faults).
type FaultList struct {
	Faults []interp.Fault
}

// PickAt returns fault i of the list (cycling past the end).
func (l FaultList) PickAt(i int, r *rand.Rand) interp.Fault {
	if len(l.Faults) == 0 {
		return l.Pick(r)
	}
	return l.Faults[i%len(l.Faults)]
}

// Pick draws uniformly from the list — the fallback for engines unaware of
// campaign.IndexedPicker. An empty list yields a never-firing fault.
func (l FaultList) Pick(r *rand.Rand) interp.Fault {
	if len(l.Faults) == 0 {
		return interp.Fault{Step: neverStep, Bit: uint8(r.Intn(64)), Kind: interp.FaultDst}
	}
	return l.Faults[r.Intn(len(l.Faults))]
}

// Validate rejects an empty fault list.
func (l FaultList) Validate() error {
	if len(l.Faults) == 0 {
		return fmt.Errorf("inject: FaultList has no faults")
	}
	return nil
}

// neverStep is a dynamic step no run ever reaches. Pickers whose population
// is empty aim faults here: the fault never fires and the run classifies as
// NotApplied. The guarded paths consume one bit draw so every Pick advances
// the stream; they make no alignment promise against the non-degenerate
// paths (which draw more), so an empty and a non-empty population yield
// different streams from the same seed.
const neverStep = ^uint64(0)

// UniformDst injects into the result of a uniformly chosen dynamic
// instruction across the whole run — the population used for whole-program
// success rates (Table IV).
type UniformDst struct {
	// TotalSteps is the dynamic instruction count of a fault-free run.
	TotalSteps uint64
}

// Pick draws a step and bit uniformly. A zero-sized population yields a
// never-firing fault (NotApplied) instead of panicking.
func (u UniformDst) Pick(r *rand.Rand) interp.Fault {
	if u.TotalSteps == 0 {
		return interp.Fault{Step: neverStep, Bit: uint8(r.Intn(64)), Kind: interp.FaultDst}
	}
	return interp.Fault{
		Step: uint64(r.Int63n(int64(u.TotalSteps))),
		Bit:  uint8(r.Intn(64)),
		Kind: interp.FaultDst,
	}
}

// Validate rejects an empty population.
func (u UniformDst) Validate() error {
	if u.TotalSteps == 0 {
		return fmt.Errorf("inject: UniformDst population is empty (TotalSteps = 0)")
	}
	return nil
}

// StepRangeDst injects into the result of a uniformly chosen dynamic
// instruction within [Lo, Hi) — the "internal locations of a code region
// instance" population (§V-C).
type StepRangeDst struct {
	Lo, Hi uint64
}

// Pick draws a step in range and a bit uniformly. An empty range yields a
// never-firing fault (NotApplied) instead of a real fault at Lo.
func (s StepRangeDst) Pick(r *rand.Rand) interp.Fault {
	if s.Hi <= s.Lo {
		return interp.Fault{Step: neverStep, Bit: uint8(r.Intn(64)), Kind: interp.FaultDst}
	}
	return interp.Fault{
		Step: s.Lo + uint64(r.Int63n(int64(s.Hi-s.Lo))),
		Bit:  uint8(r.Intn(64)),
		Kind: interp.FaultDst,
	}
}

// Validate rejects an empty range.
func (s StepRangeDst) Validate() error {
	if s.Hi <= s.Lo {
		return fmt.Errorf("inject: StepRangeDst population is empty (range [%d, %d))", s.Lo, s.Hi)
	}
	return nil
}

// UniformMem injects into a uniformly chosen memory word at a uniformly
// chosen dynamic step — the model of an ECC-escaped memory soft error
// striking program data at an arbitrary moment. Used by the Table III use
// case, where the hardenings act on data at rest (scratch arrays healed by
// copy-back, low mantissa bits healed by truncation).
type UniformMem struct {
	TotalSteps uint64
	// FirstAddr/LastAddr bound the data region (word addresses,
	// inclusive/exclusive); typically the program's global span.
	FirstAddr, LastAddr int64
}

// Pick draws a step, address, and bit uniformly. A zero-sized population
// (no steps, or an empty address range) yields a never-firing fault
// (NotApplied) instead of panicking.
func (u UniformMem) Pick(r *rand.Rand) interp.Fault {
	if u.TotalSteps == 0 || u.LastAddr <= u.FirstAddr {
		return interp.Fault{Step: neverStep, Bit: uint8(r.Intn(64)), Kind: interp.FaultMem, Addr: u.FirstAddr}
	}
	return interp.Fault{
		Step: uint64(r.Int63n(int64(u.TotalSteps))),
		Bit:  uint8(r.Intn(64)),
		Kind: interp.FaultMem,
		Addr: u.FirstAddr + r.Int63n(u.LastAddr-u.FirstAddr),
	}
}

// Validate rejects an empty population.
func (u UniformMem) Validate() error {
	if u.TotalSteps == 0 {
		return fmt.Errorf("inject: UniformMem population is empty (TotalSteps = 0)")
	}
	if u.LastAddr <= u.FirstAddr {
		return fmt.Errorf("inject: UniformMem population is empty (address range [%d, %d))", u.FirstAddr, u.LastAddr)
	}
	return nil
}

// Mixed draws from each sub-population with equal probability, modeling a
// fault population spanning both computation (instruction results) and
// stored data.
type Mixed struct {
	Pickers []TargetPicker
}

// Pick selects a sub-population uniformly, then draws from it.
func (m Mixed) Pick(r *rand.Rand) interp.Fault {
	if len(m.Pickers) == 0 {
		return interp.Fault{Step: neverStep, Bit: uint8(r.Intn(64)), Kind: interp.FaultDst}
	}
	return m.Pickers[r.Intn(len(m.Pickers))].Pick(r)
}

// Validate rejects an empty picker set and any invalid sub-population.
func (m Mixed) Validate() error {
	if len(m.Pickers) == 0 {
		return fmt.Errorf("inject: Mixed has no sub-populations")
	}
	for i, p := range m.Pickers {
		if v, ok := p.(Validator); ok {
			if err := v.Validate(); err != nil {
				return fmt.Errorf("inject: Mixed sub-population %d: %w", i, err)
			}
		}
	}
	return nil
}

// MemAtStep injects into a uniformly chosen memory word (from Addrs) at a
// fixed dynamic step — the "input locations at region entry" population
// (§III-B: isolated fault injections at the entry of code regions).
type MemAtStep struct {
	Step  uint64
	Addrs []int64
}

// Pick draws an address and bit uniformly. An empty address set yields a
// never-firing fault (NotApplied) instead of panicking.
func (m MemAtStep) Pick(r *rand.Rand) interp.Fault {
	if len(m.Addrs) == 0 {
		return interp.Fault{Step: neverStep, Bit: uint8(r.Intn(64)), Kind: interp.FaultMem}
	}
	return interp.Fault{
		Step: m.Step,
		Bit:  uint8(r.Intn(64)),
		Kind: interp.FaultMem,
		Addr: m.Addrs[r.Intn(len(m.Addrs))],
	}
}

// Validate rejects an empty address set.
func (m MemAtStep) Validate() error {
	if len(m.Addrs) == 0 {
		return fmt.Errorf("inject: MemAtStep has no addresses")
	}
	return nil
}

// SchedulerKind once selected between the checkpointed and the
// from-step-0 scheduler. Every campaign now runs checkpointed, so there is
// nothing left to select.
//
// Deprecated: kept only for the campaign benchmark's WithScheduler call;
// the benchmark change that drops that call removes it.
type SchedulerKind struct{}

// RunOne performs a single injection run from step 0 and classifies it.
func RunOne(mk func() (*interp.Machine, error), verify func(*trace.Trace) bool, f interp.Fault) (Outcome, error) {
	m, err := mk()
	if err != nil {
		return NotApplied, fmt.Errorf("inject: make machine: %w", err)
	}
	m.Mode = interp.TraceOff
	m.Fault = &f
	tr, err := m.Run()
	if err != nil {
		return NotApplied, fmt.Errorf("inject: run: %w", err)
	}
	return campaign.Classify(tr.Status, m.FaultApplied, func() bool { return verify(tr) }), nil
}
