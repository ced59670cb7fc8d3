package experiments

import (
	"fmt"
	"strings"
	"time"

	"fliptracker/internal/apps"
	"fliptracker/internal/interp"
	"fliptracker/internal/mpi"
	"fliptracker/internal/trace"
)

// Fig4Row is one bar pair of Figure 4: an MPI application's execution time
// with and without parallel tracing.
type Fig4Row struct {
	App       string
	Untraced  time.Duration
	Traced    time.Duration
	Overhead  float64 // (traced-untraced)/untraced
	RankSteps uint64  // dynamic steps of rank 0, for scale
}

// Fig4Result is the Figure 4 reproduction.
type Fig4Result struct {
	Ranks int
	Rows  []Fig4Row
	// MeanOverhead is the average tracing overhead (the paper reports 45%
	// on 64 processes).
	MeanOverhead float64
}

// TracingOverhead reproduces Figure 4: run the five MPI workloads with and
// without full tracing and compare wall-clock time. A traced clean world is
// recorded once (serving as the warm-up), then timed worlds replay its
// Recording — the unit of work an injecting MPI campaign's workers run,
// minus the fault — with traced ranks' record buffers hinted from the
// clean step counts, as the campaign hints them.
func TracingOverhead(opts Options) (*Fig4Result, error) {
	res := &Fig4Result{Ranks: opts.Ranks}
	var sum float64
	for _, name := range apps.Fig5Names() {
		a, ok := apps.Get(name)
		if !ok {
			return nil, fmt.Errorf("fig4: app %q missing", name)
		}
		p, err := a.MPIProgram()
		if err != nil {
			return nil, err
		}
		cfg := mpi.Config{Ranks: opts.Ranks, Seed: apps.DefaultSeed,
			ExtraBind: func(m *interp.Machine, _ int) error { return apps.BindMathHosts(m) }}
		run := func(mode interp.TraceMode) (*mpi.Result, time.Duration, error) {
			cfg := cfg
			cfg.Mode = mode
			start := time.Now()
			r, err := mpi.Run(p, cfg)
			if err != nil {
				return nil, 0, fmt.Errorf("fig4: %s: %w", name, err)
			}
			if r.Status() != trace.RunOK {
				return nil, 0, fmt.Errorf("fig4: %s %v run failed: %v", name, mode, r.Status())
			}
			return r, time.Since(start), nil
		}
		clean, _, err := run(interp.TraceFull)
		if err != nil {
			return nil, err
		}
		cfg.Replay = clean.Recording
		for _, rr := range clean.Ranks {
			cfg.TraceHint = max(cfg.TraceHint, rr.Trace.Steps)
		}
		cfg.TraceHint += 64
		_, un, err := run(interp.TraceOff)
		if err != nil {
			return nil, err
		}
		_, tr, err := run(interp.TraceFull)
		if err != nil {
			return nil, err
		}
		ov := float64(tr-un) / float64(un)
		steps := clean.Ranks[0].Trace.Steps
		res.Rows = append(res.Rows, Fig4Row{App: name, Untraced: un, Traced: tr, Overhead: ov, RankSteps: steps})
		sum += ov
	}
	res.MeanOverhead = sum / float64(len(res.Rows))
	return res, nil
}

// Format prints the Figure 4 bars as a table.
func (r *Fig4Result) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 4: LLVM parallel tracing performance (%d ranks)\n", r.Ranks)
	fmt.Fprintf(&sb, "%-10s %14s %14s %10s\n", "App", "untraced", "traced", "overhead")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-10s %14s %14s %9.1f%%\n",
			strings.ToUpper(row.App), row.Untraced.Round(time.Microsecond),
			row.Traced.Round(time.Microsecond), 100*row.Overhead)
	}
	fmt.Fprintf(&sb, "mean overhead: %.1f%% (paper: 45%% at 64 ranks)\n", 100*r.MeanOverhead)
	return sb.String()
}
