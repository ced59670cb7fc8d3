package experiments

import (
	"fmt"
	"strings"

	"fliptracker/internal/core"
	"fliptracker/internal/interp"
	"fliptracker/internal/ir"
	"fliptracker/internal/trace"
)

// Fig7Result reproduces Figure 7: the number of alive corrupted locations
// over dynamic instructions in LULESH after a fault in the third-from-last
// iteration of the main loop.
type Fig7Result struct {
	// Series is the ACL count after each recorded instruction of the
	// faulty run.
	Series []int32
	// InjectionIndex is where the corruption first appears.
	InjectionIndex int
	// Peak is the maximum ACL count.
	Peak int32
	// IterationSpans are the main-loop iteration boundaries (record
	// indexes), for the figure's iteration annotations.
	IterationSpans []trace.Span
	// Outcome notes how the faulty run ended.
	Outcome string
}

// ACLSeries reproduces Figure 7. The fault targets an hourglass-force
// accumulation in LagrangeNodal during the third-from-last main iteration,
// mirroring the paper's setup; the series shows corruption rising inside
// LagrangeNodal and collapsing as temporaries die.
func ACLSeries(opts Options) (*Fig7Result, error) {
	an, err := core.NewAnalyzer("lulesh")
	if err != nil {
		return nil, err
	}
	ix, err := an.Index()
	if err != nil {
		return nil, err
	}
	clean := ix.Clean()
	it := an.App.MainIterations - 3
	span, err := an.RegionInstance(an.App.MainLoop, it)
	if err != nil {
		return nil, err
	}
	// Pick the first hourgam store of the iteration (a temporal location
	// whose corruption propagates through hxx into hgfz and then dies).
	hourgam, _ := an.Prog.GlobalByName("hourgam")
	var step uint64
	found := false
	for i := span.Start; i < span.End; i++ {
		r := clean.Recs.At(i)
		if r.Op == ir.OpStore && r.Dst.IsMem() {
			addr := r.Dst.Addr()
			if addr >= hourgam.Addr && addr < hourgam.Addr+hourgam.Words {
				step = r.Step
				found = true
				break
			}
		}
	}
	if !found {
		return nil, fmt.Errorf("fig7: no hourgam store in iteration %d", it)
	}
	// The per-fault analysis runs against the analyzer's shared CleanIndex
	// (the spans and graphs derived above are reused, not recomputed).
	fa, err := an.AnalyzeFault(interp.Fault{Step: step, Bit: 52, Kind: interp.FaultDst})
	if err != nil {
		return nil, err
	}
	res := &Fig7Result{
		Series:         fa.ACL.Series,
		InjectionIndex: fa.ACL.InjectionIndex,
		Peak:           fa.ACL.Peak,
		Outcome:        fa.Outcome.String(),
	}
	mainRegion, _ := an.Prog.RegionByName(an.App.MainLoop)
	res.IterationSpans = trace.NewSpanIndex(fa.Faulty).Instances(int32(mainRegion.ID))
	return res, nil
}

// GnuplotData renders the full series as "record-index acl-count" lines —
// the same data-file shape the paper's Figure 7 plot consumes (its caption
// shows the gnuplot source file "lulesh_acl_matrix_213").
func (r *Fig7Result) GnuplotData() string {
	var sb strings.Builder
	sb.WriteString("# record_index alive_corrupted_locations\n")
	prev := int32(-1)
	for i, v := range r.Series {
		// Sparse encoding: only emit changes (gnuplot steps render fine).
		if v != prev {
			fmt.Fprintf(&sb, "%d %d\n", i, v)
			prev = v
		}
	}
	fmt.Fprintf(&sb, "%d %d\n", len(r.Series)-1, prev)
	return sb.String()
}

// Format prints a down-sampled rendering of the ACL curve with iteration
// boundaries.
func (r *Fig7Result) Format() string {
	var sb strings.Builder
	sb.WriteString("Figure 7: alive corrupted locations in LULESH (fault in 3rd-from-last iteration)\n")
	fmt.Fprintf(&sb, "injection at record %d, peak ACL %d, outcome %s\n", r.InjectionIndex, r.Peak, r.Outcome)
	if len(r.Series) == 0 {
		return sb.String()
	}
	// Down-sample to at most 60 buckets from the injection point onward.
	start := r.InjectionIndex
	if start < 0 {
		start = 0
	}
	n := len(r.Series) - start
	buckets := 60
	if n < buckets {
		buckets = n
	}
	if buckets == 0 {
		return sb.String()
	}
	per := n / buckets
	if per == 0 {
		per = 1
	}
	fmt.Fprintf(&sb, "%12s %6s  curve (max in bucket)\n", "record", "ACL")
	for b := 0; b < buckets; b++ {
		lo := start + b*per
		hi := lo + per
		if hi > len(r.Series) {
			hi = len(r.Series)
		}
		var mx int32
		for i := lo; i < hi; i++ {
			if r.Series[i] > mx {
				mx = r.Series[i]
			}
		}
		bar := int(mx)
		if bar > 80 {
			bar = 80
		}
		fmt.Fprintf(&sb, "%12d %6d  %s\n", lo, mx, strings.Repeat("#", bar))
	}
	fmt.Fprintf(&sb, "%d main-loop iteration spans in faulty trace\n", len(r.IterationSpans))
	return sb.String()
}
