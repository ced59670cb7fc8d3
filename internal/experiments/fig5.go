package experiments

import (
	"context"
	"fmt"
	"strings"

	"fliptracker/internal/apps"
	"fliptracker/internal/core"
)

// Fig5Row is one region's bar pair in Figure 5: success rates for faults on
// internal locations and on input locations, at iteration 0 of the main
// loop.
type Fig5Row struct {
	App      string
	Region   string
	Internal float64
	// Input is the input-location success rate; -1 when the region has no
	// memory inputs to target.
	Input float64
	// Tests and InputTests are the injections each campaign actually ran
	// (under Options.EarlyStop the two campaigns stop independently);
	// InputTests is 0 when the region has no memory inputs.
	Tests      int
	InputTests int
}

// Fig5Result reproduces Figure 5.
type Fig5Result struct {
	Rows []Fig5Row
}

// PerRegionSuccessRates reproduces Figure 5: per-code-region fault
// injections (internal and input populations) on the first instance of each
// region (§V-C "Per-Code-Region Results"). Tests reports the injections a
// campaign actually ran, which with Options.EarlyStop can be fewer than the
// statistical sizing.
func PerRegionSuccessRates(opts Options) (*Fig5Result, error) {
	ctx := context.Background()
	res := &Fig5Result{}
	for _, name := range apps.Fig5Names() {
		an, err := core.NewAnalyzer(name)
		if err != nil {
			return nil, err
		}
		for _, region := range an.App.Regions {
			// Population per §IV-C: injection sites counted from the
			// dynamic trace of the region instance.
			pop, err := an.PopulationSize(core.RegionInternal(region, 0))
			if err != nil {
				return nil, err
			}
			tests := opts.campaignTests(pop, 0.95, 0.03)
			row := Fig5Row{App: name, Region: region, Tests: tests, Input: -1}

			ri, err := an.Campaign(ctx, core.RegionInternal(region, 0),
				opts.campaignOptions(tests, opts.Seed, 0.95, 0.03)...)
			if err != nil {
				return nil, fmt.Errorf("fig5: %s/%s internal: %w", name, region, err)
			}
			row.Internal = ri.SuccessRate()
			row.Tests = ri.Tests

			if locs, err := an.RegionInputLocs(region, 0); err == nil && len(locs) > 0 {
				rin, err := an.Campaign(ctx, core.RegionInputs(region, 0),
					opts.campaignOptions(tests, opts.Seed+1, 0.95, 0.03)...)
				if err != nil {
					return nil, fmt.Errorf("fig5: %s/%s input: %w", name, region, err)
				}
				row.Input = rin.SuccessRate()
				row.InputTests = rin.Tests
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

// Format prints the Figure 5 bars.
func (r *Fig5Result) Format() string {
	var sb strings.Builder
	sb.WriteString("Figure 5: fault injection success rates per code region (iteration 0)\n")
	fmt.Fprintf(&sb, "%-10s %-8s %10s %10s %9s %9s\n", "App", "Region", "internal", "input", "int-tests", "inp-tests")
	last := ""
	for _, row := range r.Rows {
		app := strings.ToUpper(row.App)
		if app == last {
			app = ""
		} else {
			last = app
		}
		input, inputTests := "   n/a", "      n/a"
		if row.Input >= 0 {
			input = fmt.Sprintf("%10.3f", row.Input)
			inputTests = fmt.Sprintf("%9d", row.InputTests)
		}
		fmt.Fprintf(&sb, "%-10s %-8s %10.3f %10s %9d %9s\n", app, row.Region, row.Internal, input, row.Tests, inputTests)
	}
	return sb.String()
}
