package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"fliptracker/internal/apps"
	"fliptracker/internal/campaign"
	"fliptracker/internal/core"
	"fliptracker/internal/inject"
	"fliptracker/internal/interp"
	"fliptracker/internal/ir"
	"fliptracker/internal/patterns"
	"fliptracker/internal/trace"
)

// Tab1Row is one code region of Table I: its location, size, and which
// resilience computation patterns FlipTracker found in it.
type Tab1Row struct {
	App          string
	Region       string
	Lines        string
	InstrPerIter int
	Found        [patterns.NumPatterns]bool
	AnyFound     bool
	Injections   int
}

// Tab1Result reproduces Table I.
type Tab1Result struct {
	Rows []Tab1Row
}

// PatternInventory reproduces Table I: for every code region of the five
// study programs, inject a spread of faults into the region's first
// instance, run the full DDDG+ACL analysis on each faulty run, and take the
// union of detected patterns. The hand-picked fault spread runs as one
// analyzed campaign per region (inject.FaultList + the CleanIndex analysis
// hook), so the per-fault analyses share the clean-run index and execute in
// parallel across the campaign worker pool.
func PatternInventory(opts Options) (*Tab1Result, error) {
	ctx := context.Background()
	injections := 8
	if !opts.Quick {
		injections = 32
	}
	res := &Tab1Result{}
	for _, name := range apps.Fig5Names() {
		an, err := core.NewAnalyzer(name)
		if err != nil {
			return nil, err
		}
		ix, err := an.Index()
		if err != nil {
			return nil, err
		}
		clean := ix.Clean()
		for _, region := range an.App.Regions {
			reg, err := an.Region(region)
			if err != nil {
				return nil, err
			}
			span, err := an.RegionInstance(region, 0)
			if err != nil {
				return nil, err
			}
			row := Tab1Row{
				App:          name,
				Region:       region,
				Lines:        fmt.Sprintf("%d-%d", reg.FirstLine, reg.LastLine),
				InstrPerIter: span.Len(),
				Injections:   injections,
			}
			rng := rand.New(rand.NewSource(opts.Seed))
			var faults []interp.Fault
			for k := 0; k < injections; k++ {
				// Spread injection points across the instance, skipping to
				// a destination-writing record; pick the bit range by the
				// target's type (mantissa bits for doubles, low bits for
				// integers) so faults are absorbable — the
				// pattern-revealing population.
				idx := span.Start + (k*span.Len())/injections
				for idx < span.End && !clean.Recs.HasDst(idx) {
					idx++
				}
				if idx >= span.End {
					continue
				}
				rec := clean.Recs.At(idx)
				var bit uint8
				if rec.Typ == ir.F64 {
					bit = uint8(20 + rng.Intn(33)) // mantissa bits 20..52
				} else {
					bit = uint8(rng.Intn(13)) // low integer bits 0..12
				}
				faults = append(faults, interp.Fault{Step: rec.Step, Bit: bit, Kind: interp.FaultDst})
			}
			if len(faults) > 0 {
				c, err := inject.NewCampaign(an.App.NewMachine, an.App.Verify,
					inject.FaultList{Faults: faults},
					campaign.WithTests(len(faults)),
					ix.AnalysisOption())
				if err != nil {
					return nil, err
				}
				for fo, err := range c.Stream(ctx) {
					if err != nil {
						return nil, fmt.Errorf("tab1: %s region %s: %w", name, region, err)
					}
					fa := fo.Analysis.(*core.FaultAnalysis)
					// A resilience computation pattern is a computation that
					// "ultimately helps the program tolerate a fault" (§II-B):
					// only tolerated runs count toward the inventory.
					if fa.Outcome != inject.Success {
						continue
					}
					for _, rr := range fa.Regions {
						if rr.Region.Name != region {
							continue
						}
						for pi := 0; pi < patterns.NumPatterns; pi++ {
							if rr.Patterns.Found[pi] {
								row.Found[pi] = true
								row.AnyFound = true
							}
						}
					}
					// Output truncation acts in the program epilogue (LULESH's
					// %12.6e report), outside any region span; attribute it to
					// the region the corruption came from.
					wholeSpan := trace.Span{Start: 0, End: fa.Faulty.Recs.Len()}
					whole := patterns.Detect(an.Prog, fa.Faulty, clean, wholeSpan, fa.ACL)
					if whole.Found[patterns.Truncation] {
						row.Found[patterns.Truncation] = true
						row.AnyFound = true
					}
				}
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

// Format prints Table I.
func (r *Tab1Result) Format() string {
	var sb strings.Builder
	sb.WriteString("Table I: resilience computation patterns in code regions\n")
	fmt.Fprintf(&sb, "%-8s %-8s %-10s %9s %6s  %-4s %-3s %-3s %-6s %-6s %-3s\n",
		"Program", "Region", "Lines", "#instr", "Found",
		"DCL", "RA", "CS", "Shift", "Trunc", "DO")
	last := ""
	for _, row := range r.Rows {
		app := strings.ToUpper(row.App)
		if app == last {
			app = ""
		} else {
			last = app
		}
		mark := func(p patterns.Pattern) string {
			if row.Found[p] {
				return "Y"
			}
			return "-"
		}
		found := "NO"
		if row.AnyFound {
			found = "YES"
		}
		fmt.Fprintf(&sb, "%-8s %-8s %-10s %9d %6s  %-4s %-3s %-3s %-6s %-6s %-3s\n",
			app, row.Region, row.Lines, row.InstrPerIter, found,
			mark(patterns.DCL), mark(patterns.RepeatedAddition), mark(patterns.Conditional),
			mark(patterns.Shifting), mark(patterns.Truncation), mark(patterns.Overwriting))
	}
	return sb.String()
}
