package main

import (
	"fmt"
	"sync"
	"time"

	"fliptracker/internal/acl"
	"fliptracker/internal/core"
	"fliptracker/internal/dddg"
	"fliptracker/internal/inject"
	"fliptracker/internal/interp"
	"fliptracker/internal/ir"
	"fliptracker/internal/patterns"
	"fliptracker/internal/trace"
)

// layerSumTolerance is how far the attributed layers plus the unattributed
// remainder may differ from the traced wall time, as a share of it.
const layerSumTolerance = 0.01

// tracer records spans around the calls a serial (parallelism 1) campaign
// makes into the callbacks it was handed: the machine factory, the verifier,
// the analysis hook — and, inside the hook, acl, dddg and patterns. With one
// worker the calls never overlap, so consecutive spans partition a
// campaign's wall time:
//
//	plan     factory call whose machine never receives a fault (the
//	         checkpoint forward pass) until the next span
//	exec     factory call of a faulted machine until the next span
//	         (restore + resume, or a from-scratch run)
//	verify   the verifier call
//	analyze  the analysis hook (acl, dddg, patterns and core's own glue)
//	gap      everything between spans: drawing faults, classification,
//	         the fan-out engine's hand-offs (campaign.unattributed)
//
// For MPI campaigns there is no factory hook; the time between verifier
// calls is world execution (mpi).
type tracer struct {
	mu sync.Mutex
	// mpiGaps attributes gaps to world execution instead of the campaign
	// engine (MPI campaigns expose only the verifier).
	mpiGaps bool

	last      time.Time       // end of the previous span
	cstart    time.Time       // start of the open campaign
	pending   *interp.Machine // machine of the open factory span
	pendStart time.Time

	plan, exec, verify, analyze, gap, world time.Duration
	acl, dddg, patterns                     time.Duration
	wall                                    time.Duration
	campaigns, execs                        int
	analyzed                                int
	recs                                    int64
}

func newTracer() *tracer { return &tracer{} }

func (t *tracer) campaignStart(now time.Time) {
	t.mu.Lock()
	t.last = now
	t.cstart = now
	t.pending = nil
	t.mu.Unlock()
}

func (t *tracer) campaignEnd(now time.Time) {
	t.mu.Lock()
	t.closeUntil(now)
	t.wall += now.Sub(t.cstart)
	t.campaigns++
	t.mu.Unlock()
}

// closeUntil ends whatever is open at now: a pending factory span becomes
// plan or exec, otherwise the interval since the last span is a gap.
// Callers hold mu.
func (t *tracer) closeUntil(now time.Time) {
	if m := t.pending; m != nil {
		d := now.Sub(t.pendStart)
		if m.Fault == nil {
			t.plan += d
		} else {
			t.exec += d
			t.execs++
		}
		t.pending = nil
	} else if d := now.Sub(t.last); d > 0 {
		if t.mpiGaps {
			t.world += d
		} else {
			t.gap += d
		}
	}
	t.last = now
}

// factory wraps a machine factory.
func (t *tracer) factory(mk func() (*interp.Machine, error)) func() (*interp.Machine, error) {
	return func() (*interp.Machine, error) {
		start := time.Now()
		t.mu.Lock()
		t.closeUntil(start)
		t.mu.Unlock()
		m, err := mk()
		t.mu.Lock()
		t.pending = m
		t.pendStart = start
		t.mu.Unlock()
		return m, err
	}
}

// span times fn as one span of the given layer.
func (t *tracer) span(layer *time.Duration, fn func()) {
	start := time.Now()
	t.mu.Lock()
	t.closeUntil(start)
	t.mu.Unlock()
	fn()
	end := time.Now()
	t.mu.Lock()
	*layer += end.Sub(start)
	t.last = end
	t.mu.Unlock()
}

// verifier wraps an application verifier.
func (t *tracer) verifier(verify func(*trace.Trace) bool) func(*trace.Trace) bool {
	return func(tr *trace.Trace) bool {
		var ok bool
		t.span(&t.verify, func() { ok = verify(tr) })
		return ok
	}
}

// analyzer is the analysis hook core.CleanIndex.AnalysisOption installs,
// rebuilt from the layers' public functions with a span around each call.
// Its payload must equal the untraced campaign's (checked by digest).
func (t *tracer) analyzer(ix *core.CleanIndex, prog *ir.Program, verify func(*trace.Trace) bool) inject.TraceAnalyzer {
	return func(_ int, f interp.Fault, faulty *trace.Trace, outcome inject.Outcome) (any, error) {
		var fa *core.FaultAnalysis
		var acld, dddgd, patd time.Duration
		t.span(&t.analyze, func() {
			fa = analyzeTimed(ix, prog, verify, f, faulty, &acld, &dddgd, &patd)
			if outcome == inject.NotApplied {
				fa.Outcome = inject.NotApplied
			}
		})
		t.mu.Lock()
		t.acl += acld
		t.dddg += dddgd
		t.patterns += patd
		t.analyzed++
		t.recs += int64(faulty.Recs.Len())
		t.mu.Unlock()
		return fa, nil
	}
}

// analyzeTimed is CleanIndex.AnalyzeTrace with the acl, dddg and patterns
// calls timed.
func analyzeTimed(ix *core.CleanIndex, prog *ir.Program, verify func(*trace.Trace) bool, f interp.Fault, faulty *trace.Trace, acld, dddgd, patd *time.Duration) *core.FaultAnalysis {
	timed := func(d *time.Duration, fn func()) {
		s := time.Now()
		fn()
		*d += time.Since(s)
	}
	clean := ix.Clean()
	fa := &core.FaultAnalysis{Fault: f, Faulty: faulty}
	switch faulty.Status {
	case trace.RunCrashed, trace.RunHang:
		fa.Outcome = inject.Crashed
	default:
		if verify(faulty) {
			fa.Outcome = inject.Success
		} else {
			fa.Outcome = inject.Failed
		}
	}
	timed(acld, func() { fa.ACL = acl.Analyze(faulty, clean) })
	if fa.ACL.InjectionIndex < 0 {
		return fa
	}
	fIdx := trace.NewSpanIndex(faulty)
	var det *patterns.Detector
	timed(patd, func() { det = patterns.NewDetector(prog, faulty, clean, fa.ACL) })
	touched := map[int32]bool{}
	for _, cs := range ix.Spans() {
		fs, ok := fIdx.Instance(cs.RegionID, cs.Instance)
		if !ok || !fa.ACL.TouchesSpan(fs) {
			continue
		}
		g := ix.Graph(cs)
		rr := core.RegionReport{Region: prog.Regions[cs.RegionID], Instance: cs.Instance, ACLDrop: fa.ACL.DropWithinSpan(fs)}
		timed(dddgd, func() { rr.Comparison = dddg.CompareRegionWith(g, faulty, fs) })
		timed(patd, func() { rr.Patterns = det.Detect(fs) })
		fa.Regions = append(fa.Regions, rr)
		touched[cs.RegionID] = true
	}
	for regionID := range touched {
		spans := fIdx.Instances(regionID)
		if len(spans) < 2 {
			continue
		}
		var ras []patterns.RAEvidence
		timed(patd, func() { ras = patterns.DetectRepeatedAdditionsInSpans(faulty, clean, spans) })
		for _, ra := range ras {
			for i := range fa.Regions {
				if fa.Regions[i].Region.ID == int(regionID) {
					p := fa.Regions[i].Patterns
					p.Found[patterns.RepeatedAddition] = true
					p.Evidence = append(p.Evidence, patterns.Evidence{
						Pattern: patterns.RepeatedAddition, RecIndex: ra.LastRecIndex, Loc: ra.Loc,
						Note: fmt.Sprintf("error magnitude shrank %.3g -> %.3g over %d additions (across instances)", ra.FirstMag, ra.LastMag, ra.Writes),
					})
					break
				}
			}
		}
	}
	return fa
}

// report turns the accumulated spans into per-layer metrics for a traced
// phase of the given wall time and fault count, and checks the layer sum.
func (t *tracer) report(r *report, faults float64, wall time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	attributed := t.plan + t.exec + t.verify + t.analyze + t.world
	if t.execs > 0 {
		r.set("interp.exec_ms_per_fault", ms(t.exec)/float64(t.execs))
	}
	if t.campaigns > 0 {
		r.set("inject.plan_ms_per_campaign", ms(t.plan)/float64(t.campaigns))
	}
	if t.execs > 0 {
		r.set("inject.verify_us_per_fault", ms(t.verify)*1e3/float64(t.execs))
	}
	if t.analyzed > 0 {
		n := float64(t.analyzed)
		r.set("core.analyze_ms_per_fault", ms(t.analyze-t.acl-t.dddg-t.patterns)/n)
		r.set("acl.ms_per_fault", ms(t.acl)/n)
		r.set("dddg.ms_per_fault", ms(t.dddg)/n)
		r.set("patterns.ms_per_fault", ms(t.patterns)/n)
		r.set("trace.recs_per_fault", float64(t.recs)/n)
	}
	r.set("campaign.unattributed_ms_per_fault", ms(t.gap)/faults)
	r.set("bench.traced_ms_per_fault", ms(wall)/faults)
	t.checkSum(r, attributed+t.gap)
}

// checkSum compares the summed spans against the campaigns' own wall time
// (Stream call to last outcome, summed); a difference beyond the tolerance
// means spans overlapped or went missing and fails the run.
func (t *tracer) checkSum(r *report, summed time.Duration) {
	campaignsWall := t.wall
	if campaignsWall == 0 {
		return
	}
	e := (summed.Seconds() - campaignsWall.Seconds()) / campaignsWall.Seconds()
	r.set("bench.layer_sum_error_frac", e)
	if e > layerSumTolerance || e < -layerSumTolerance {
		r.fail("layer sum: spans total %.3fs, campaigns' wall %.3fs (error %.2f%%, tolerance %.0f%%)",
			summed.Seconds(), campaignsWall.Seconds(), 100*e, 100*layerSumTolerance)
	}
}
