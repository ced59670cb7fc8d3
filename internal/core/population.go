package core

import (
	"fmt"

	"fliptracker/internal/inject"
)

// Population selects a fault-injection site population for an Analyzer
// campaign — the typed replacement for the v1 API's stringly-typed
// "internal"/"input" target. Build one with the constructors below and pass
// it to Analyzer.Campaign, NewCampaign or PopulationSize; the analyzer
// resolves it against the application's clean trace into a concrete
// inject.TargetPicker. The zero Population is whole-program.
type Population struct {
	kind     string // a PopulationSpec kind
	region   string
	instance int
}

// WholeProgram targets the result of a uniformly chosen dynamic instruction
// across the full run — the application-level population behind the
// Table IV "measured SR".
func WholeProgram() Population { return Population{kind: "whole-program"} }

// RegionInternal targets the internal locations of one code-region
// instance: uniform dynamic instructions within the instance's clean-trace
// span (§V-C, the Figure 5/6 "internal" bars).
func RegionInternal(region string, instance int) Population {
	return Population{kind: "region-internal", region: region, instance: instance}
}

// RegionInputs targets the memory input locations of one code-region
// instance, flipped at region entry (§III-B's isolated injections; the
// Figure 5/6 "input" bars).
func RegionInputs(region string, instance int) Population {
	return Population{kind: "region-inputs", region: region, instance: instance}
}

// Hybrid targets a mixed population: half instruction-result flips across
// the run, half memory-word flips over the program's data (an ECC-escaped
// memory SDC). The Table III use case uses this population because its
// hardenings protect data at rest.
func Hybrid() Population { return Population{kind: "hybrid"} }

// String names the population.
func (p Population) String() string {
	switch p.kind {
	case "":
		return "whole-program"
	case "region-internal":
		return fmt.Sprintf("region %s#%d internal", p.region, p.instance)
	case "region-inputs":
		return fmt.Sprintf("region %s#%d inputs", p.region, p.instance)
	}
	return p.kind
}

// resolvePopulation turns a Population into a concrete picker plus its
// injection-site count, per §IV-C: "we calculate the number of fault
// injection sites by analyzing the dynamic LLVM instruction trace".
// Internal targets count one site per destination-writing dynamic
// instruction per bit; input targets one site per input memory word per
// bit; whole-program one site per dynamic instruction per bit; hybrid adds
// one site per data word per bit on top of the whole-program count.
func (an *Analyzer) resolvePopulation(pop Population) (inject.TargetPicker, uint64, error) {
	clean, err := an.CleanTrace()
	if err != nil {
		return nil, 0, err
	}
	switch pop.kind {
	case "", "whole-program":
		return inject.UniformDst{TotalSteps: clean.Steps}, clean.Steps * 64, nil
	case "region-internal":
		s, err := an.RegionInstance(pop.region, pop.instance)
		if err != nil {
			return nil, 0, err
		}
		var writes uint64
		for i := s.Start; i < s.End; i++ {
			if clean.Recs.HasDst(i) {
				writes++
			}
		}
		lo := clean.Recs.Step(s.Start)
		hi := clean.Recs.Step(s.End-1) + 1
		return inject.StepRangeDst{Lo: lo, Hi: hi}, writes * 64, nil
	case "region-inputs":
		s, err := an.RegionInstance(pop.region, pop.instance)
		if err != nil {
			return nil, 0, err
		}
		locs, err := an.RegionInputLocs(pop.region, pop.instance)
		if err != nil {
			return nil, 0, err
		}
		if len(locs) == 0 {
			return nil, 0, fmt.Errorf("core: region %q instance %d has no memory inputs", pop.region, pop.instance)
		}
		addrs := make([]int64, len(locs))
		for i, l := range locs {
			addrs[i] = l.Addr()
		}
		return inject.MemAtStep{Step: clean.Recs.Step(s.Start), Addrs: addrs}, uint64(len(locs)) * 64, nil
	case "hybrid":
		words := uint64(0)
		if an.Prog.MemWords > 1 {
			words = uint64(an.Prog.MemWords - 1)
		}
		return inject.Mixed{Pickers: []inject.TargetPicker{
			inject.UniformDst{TotalSteps: clean.Steps},
			inject.UniformMem{TotalSteps: clean.Steps, FirstAddr: 1, LastAddr: an.Prog.MemWords},
		}}, (clean.Steps + words) * 64, nil
	}
	return nil, 0, fmt.Errorf("core: unknown population kind %q", pop.kind)
}
