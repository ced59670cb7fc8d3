package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"fliptracker/internal/core"
	"fliptracker/internal/inject"
	"fliptracker/internal/interp"
)

// Tab3Row is one row of Table III: a CG variant with resilience patterns
// applied, its measured resilience (success rate), and its execution time.
type Tab3Row struct {
	Variant  string
	Label    string
	SR       float64
	Tests    int
	MinTime  time.Duration
	MaxTime  time.Duration
	MeanTime time.Duration
}

// Tab3Result reproduces Table III (Use Case 1, §VII-A).
type Tab3Result struct {
	Rows []Tab3Row
}

// ResilienceAwareCG reproduces Table III: measure the success rate and the
// execution time of baseline CG and of the three hardened variants (DCL +
// overwriting via sprnvc temporaries, truncation in the p·q window, and
// both together).
func ResilienceAwareCG(opts Options) (*Tab3Result, error) {
	ctx := context.Background()
	variants := []struct{ name, label string }{
		{"cg", "None"},
		{"cg-dclovw", "DCL and overwrt."},
		{"cg-trunc", "Truncation"},
		{"cg-all", "All together"},
	}
	res := &Tab3Result{}
	for _, v := range variants {
		an, err := core.NewAnalyzer(v.name)
		if err != nil {
			return nil, err
		}
		ix, err := an.Index()
		if err != nil {
			return nil, err
		}
		clean := ix.Clean()
		picker, err := tab3Population(an, ix)
		if err != nil {
			return nil, err
		}
		// Paper sizing for the use cases: 99% confidence, 1% margin.
		tests := opts.campaignTests(clean.Steps*64, 0.99, 0.01)
		c, err := inject.NewCampaign(an.App.NewMachine, an.App.Verify, picker,
			opts.campaignOptions(tests, opts.Seed, 0.99, 0.01)...)
		if err != nil {
			return nil, err
		}
		cr, err := c.Run(ctx)
		if err != nil {
			return nil, err
		}
		row := Tab3Row{Variant: v.name, Label: v.label, SR: cr.SuccessRate(), Tests: cr.Tests}

		// Execution time over opts.Runs clean runs (paper: 20 runs).
		runs := opts.Runs
		if runs < 1 {
			runs = 1
		}
		var total time.Duration
		for i := 0; i < runs; i++ {
			m, err := an.App.NewMachine()
			if err != nil {
				return nil, err
			}
			start := time.Now()
			if _, err := m.Run(); err != nil {
				return nil, err
			}
			el := time.Since(start)
			total += el
			if row.MinTime == 0 || el < row.MinTime {
				row.MinTime = el
			}
			if el > row.MaxTime {
				row.MaxTime = el
			}
		}
		row.MeanTime = total / time.Duration(runs)
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// tab3Population builds the Use Case 1 injection population, following the
// paper's region-instance method (§IV-C): faults target the code the
// hardenings protect — instruction results inside the sprnvc phase and the
// conj_grad dot-product region, and memory words of the v[]/iv[] arrays
// while the sprnvc phase executes (an ECC-escaped memory error striking the
// scratch state the copy-back hardening heals). Region instances come from
// the analyzer's CleanIndex, so the clean trace is split exactly once per
// variant.
func tab3Population(an *core.Analyzer, ix *core.CleanIndex) (inject.TargetPicker, error) {
	clean := ix.Clean()
	stepRange := func(name string) ([][2]uint64, error) {
		r, err := an.Region(name)
		if err != nil {
			return nil, err
		}
		var out [][2]uint64
		for _, s := range ix.Instances(int32(r.ID)) {
			if s.Len() < 2 {
				continue
			}
			out = append(out, [2]uint64{clean.Recs.Step(s.Start), clean.Recs.Step(s.End-1) + 1})
		}
		return out, nil
	}
	sprnvc, err := stepRange("cg_sprnvc")
	if err != nil {
		return nil, err
	}
	dot, err := stepRange("cg_c")
	if err != nil {
		return nil, err
	}
	v, _ := an.Prog.GlobalByName("v")
	iv, _ := an.Prog.GlobalByName("iv")
	var addrs []int64
	for i := int64(0); i < v.Words; i++ {
		addrs = append(addrs, v.Addr+i)
	}
	for i := int64(0); i < iv.Words; i++ {
		addrs = append(addrs, iv.Addr+i)
	}
	return tab3Picker{
		dstRanges: append(append([][2]uint64{}, sprnvc...), dot...),
		memRanges: sprnvc,
		memAddrs:  addrs,
	}, nil
}

type tab3Picker struct {
	dstRanges [][2]uint64
	memRanges [][2]uint64
	memAddrs  []int64
}

// Pick draws half instruction-result faults in the protected regions and
// half memory faults on the sprnvc arrays during the sprnvc phase.
func (p tab3Picker) Pick(r *rand.Rand) interp.Fault {
	pickIn := func(ranges [][2]uint64) uint64 {
		rg := ranges[r.Intn(len(ranges))]
		if rg[1] <= rg[0] {
			return rg[0]
		}
		return rg[0] + uint64(r.Int63n(int64(rg[1]-rg[0])))
	}
	if r.Intn(2) == 0 {
		return interp.Fault{
			Step: pickIn(p.dstRanges),
			Bit:  uint8(r.Intn(64)),
			Kind: interp.FaultDst,
		}
	}
	return interp.Fault{
		Step: pickIn(p.memRanges),
		Bit:  uint8(r.Intn(64)),
		Kind: interp.FaultMem,
		Addr: p.memAddrs[r.Intn(len(p.memAddrs))],
	}
}

// Format prints Table III.
func (r *Tab3Result) Format() string {
	var sb strings.Builder
	sb.WriteString("Table III: resilience patterns applied to CG (Use Case 1)\n")
	fmt.Fprintf(&sb, "%-18s %10s %7s %28s\n", "Resi. pattern", "app resi.", "tests", "exe time (min-max / mean)")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-18s %10.3f %7d %12s-%s / %s\n",
			row.Label, row.SR, row.Tests,
			row.MinTime.Round(time.Microsecond), row.MaxTime.Round(time.Microsecond),
			row.MeanTime.Round(time.Microsecond))
	}
	if len(r.Rows) >= 2 {
		base := r.Rows[0].SR
		best := r.Rows[len(r.Rows)-1].SR
		if base > 0 {
			fmt.Fprintf(&sb, "resilience improvement (all patterns): %+.1f%% (paper: +32.5%%)\n",
				100*(best-base)/base)
		}
	}
	return sb.String()
}
