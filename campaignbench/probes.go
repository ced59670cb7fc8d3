package main

import (
	"fmt"
	"time"

	"fliptracker/internal/apps"
	"fliptracker/internal/core"
	"fliptracker/internal/interp"
)

// Probes time single calls into one layer's public functions on the
// workload's own applications, for layers the engines call internally
// (where the benchmark cannot put a span around the engine's own call).

// probeInterp measures the interpreter on each app: untraced and fully
// traced clean runs (Machine.Run), and Snapshot/Restore at evenly spaced
// steps of a clean run.
func probeInterp(r *report, names []string) error {
	const runs, snaps = 3, 16
	var offSteps, fullSteps uint64
	var offTime, fullTime time.Duration
	var snapUS, restoreUS []float64
	for _, name := range names {
		a, ok := apps.Get(name)
		if !ok {
			return fmt.Errorf("probe: unknown app %q", name)
		}
		var appSteps uint64
		for i := 0; i < runs; i++ {
			for _, mode := range []interp.TraceMode{interp.TraceOff, interp.TraceFull} {
				m, err := a.NewMachine()
				if err != nil {
					return err
				}
				m.Mode = mode
				if mode == interp.TraceFull {
					m.TraceHint = appSteps + 64
				}
				t0 := time.Now()
				if _, err := m.Run(); err != nil {
					return err
				}
				d := time.Since(t0)
				if mode == interp.TraceOff {
					appSteps = m.Steps()
					offSteps += m.Steps()
					offTime += d
				} else {
					fullSteps += m.Steps()
					fullTime += d
				}
			}
		}
		steps := appSteps
		m, err := a.NewMachine()
		if err != nil {
			return err
		}
		m.Mode = interp.TraceOff
		var taken []*interp.Snapshot
		for k := 1; k <= snaps; k++ {
			paused, err := m.RunUntil(steps * uint64(k) / (snaps + 1))
			if err != nil {
				return err
			}
			if !paused {
				break
			}
			t0 := time.Now()
			s, err := m.Snapshot()
			if err != nil {
				return err
			}
			snapUS = append(snapUS, float64(time.Since(t0))/1e3)
			taken = append(taken, s)
		}
		for _, s := range taken {
			m2, err := a.NewMachine()
			if err != nil {
				return err
			}
			t0 := time.Now()
			if err := m2.Restore(s); err != nil {
				return err
			}
			restoreUS = append(restoreUS, float64(time.Since(t0))/1e3)
		}
	}
	r.set("interp.msteps_per_s", float64(offSteps)/offTime.Seconds()/1e6)
	r.set("interp.traced_msteps_per_s", float64(fullSteps)/fullTime.Seconds()/1e6)
	r.set("interp.snapshot_us", median(snapUS))
	r.set("interp.restore_us", median(restoreUS))
	return nil
}

// probeCore measures what an analyzer's set-up costs per app: the clean
// full-trace run (Analyzer.CleanTrace) and the clean index over it
// (Analyzer.Index), each on a fresh analyzer.
func probeCore(r *report, names []string) error {
	var clean, index time.Duration
	for _, name := range names {
		an, err := core.NewAnalyzer(name)
		if err != nil {
			return err
		}
		t0 := time.Now()
		if _, err := an.CleanTrace(); err != nil {
			return err
		}
		t1 := time.Now()
		if _, err := an.Index(); err != nil {
			return err
		}
		clean += t1.Sub(t0)
		index += time.Since(t1)
	}
	n := float64(len(names))
	r.set("core.clean_run_ms", ms(clean)/n)
	r.set("core.index_build_ms", ms(index)/n)
	return nil
}
