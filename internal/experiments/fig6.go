package experiments

import (
	"context"
	"fmt"
	"strings"

	"fliptracker/internal/apps"
	"fliptracker/internal/core"
)

// Fig6Row is one iteration's bar pair in Figure 6. Tests and InputTests
// are the injections each campaign actually ran (under Options.EarlyStop
// the two campaigns stop independently); InputTests is 0 when the
// iteration has no memory inputs.
type Fig6Row struct {
	App        string
	Iteration  int
	Internal   float64
	Input      float64 // -1 when no memory inputs
	Tests      int
	InputTests int
}

// Fig6Result reproduces Figure 6.
type Fig6Result struct {
	Rows []Fig6Row
}

// PerIterationSuccessRates reproduces Figure 6: the whole main loop is one
// code region and each iteration one instance; faults are injected per
// iteration into internal and input locations (§V-C "Per-Iteration
// Results").
func PerIterationSuccessRates(opts Options) (*Fig6Result, error) {
	ctx := context.Background()
	res := &Fig6Result{}
	for _, name := range apps.Fig5Names() {
		an, err := core.NewAnalyzer(name)
		if err != nil {
			return nil, err
		}
		// Every iteration's span lookup, input-set probe and campaign
		// population resolve against the analyzer's shared CleanIndex, so
		// the clean trace is split once per app, not once per campaign.
		for it := 0; it < an.App.MainIterations; it++ {
			s, err := an.RegionInstance(an.App.MainLoop, it)
			if err != nil {
				return nil, err
			}
			pop := uint64(s.Len()) * 64
			tests := opts.campaignTests(pop, 0.95, 0.03)
			if opts.Quick && tests > 60 {
				tests = 60 // fig6 has ~37 campaign targets; keep quick mode quick
			}
			row := Fig6Row{App: name, Iteration: it, Tests: tests, Input: -1}
			ri, err := an.Campaign(ctx, core.RegionInternal(an.App.MainLoop, it),
				opts.campaignOptions(tests, opts.Seed+int64(it), 0.95, 0.03)...)
			if err != nil {
				return nil, fmt.Errorf("fig6: %s iter %d internal: %w", name, it, err)
			}
			row.Internal = ri.SuccessRate()
			row.Tests = ri.Tests
			if locs, err := an.RegionInputLocs(an.App.MainLoop, it); err == nil && len(locs) > 0 {
				rin, err := an.Campaign(ctx, core.RegionInputs(an.App.MainLoop, it),
					opts.campaignOptions(tests, opts.Seed+100+int64(it), 0.95, 0.03)...)
				if err != nil {
					return nil, fmt.Errorf("fig6: %s iter %d input: %w", name, it, err)
				}
				row.Input = rin.SuccessRate()
				row.InputTests = rin.Tests
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

// Format prints the Figure 6 series.
func (r *Fig6Result) Format() string {
	var sb strings.Builder
	sb.WriteString("Figure 6: fault injection success rates per main-loop iteration\n")
	fmt.Fprintf(&sb, "%-10s %5s %10s %10s %9s %9s\n", "App", "iter", "internal", "input", "int-tests", "inp-tests")
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
		fmt.Fprintf(&sb, "%-10s %5d %10.3f %10s %9d %9s\n", app, row.Iteration+1, row.Internal, input, row.Tests, inputTests)
	}
	return sb.String()
}
