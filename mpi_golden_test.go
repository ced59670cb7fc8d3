package fliptracker_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"fliptracker"
	"fliptracker/internal/interp"
)

// digestWA renders everything the MPI pipeline reports for one faulty world:
// the world-level §II-A outcome, the cross-rank propagation classification,
// and each rank's full FaultAnalysis digest (digestFA — outcome, ACL
// numbers, region reports, pattern bitsets). Two WorldAnalysis values with
// equal digests are byte-identical in everything a report could consume.
func digestWA(wa *fliptracker.WorldAnalysis) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "world=%s prop=%s faultrank=%d", wa.Outcome, wa.Propagation, wa.FaultRank)
	for r, fa := range wa.Ranks {
		fmt.Fprintf(&sb, " || rank%d %s", r, digestFA(fa))
	}
	return sb.String()
}

// TestMPICampaignMatchesSequentialLoop is the MPI campaign golden test: for
// a fixed seed, the analyzed campaign's per-world results — world outcome,
// propagation, and every rank's analysis — are byte-identical (FNV-compared
// digests) to a sequential loop of mpi.Run + per-rank AnalyzeTrace
// (MPIAnalyzer.AnalyzeWorld), at parallelism 1 and 4, in fault-index order.
// This pins both the engine (deterministic fault stream, reorder buffer,
// world worker pool) and the world substrate's determinism guarantees
// (rank-ordered collectives, recorded wildcard receives, deterministic
// crashed-world teardown).
func TestMPICampaignMatchesSequentialLoop(t *testing.T) {
	const (
		ranks = 3
		tests = 8
	)
	ma, err := fliptracker.NewMPIAnalyzer("is", ranks)
	if err != nil {
		t.Fatal(err)
	}
	ma.FaultRank = 1
	ctx := context.Background()
	copts := func(par int) []fliptracker.MPIOption {
		return []fliptracker.MPIOption{
			fliptracker.WithTests(tests),
			fliptracker.WithSeed(20181111),
			fliptracker.WithParallelism(par),
		}
	}

	// The reference: stream the campaign once at parallelism 1 to learn the
	// drawn faults and their digests.
	var faults []interp.Fault
	var ref []string
	c, err := ma.NewAnalyzedCampaign(nil, copts(1)...)
	if err != nil {
		t.Fatal(err)
	}
	for wo, err := range c.Stream(ctx) {
		if err != nil {
			t.Fatal(err)
		}
		wa, ok := wo.Analysis.(*fliptracker.WorldAnalysis)
		if !ok {
			t.Fatalf("payload type %T", wo.Analysis)
		}
		faults = append(faults, wo.Fault)
		if wo.Outcome != wa.Outcome {
			t.Errorf("world %d: stream outcome %v != analysis outcome %v", wo.Index, wo.Outcome, wa.Outcome)
		}
		ref = append(ref, digestWA(wa))
	}
	if len(ref) != tests {
		t.Fatalf("campaign yielded %d analyses, want %d", len(ref), tests)
	}

	// Sequential loop: one mpi.Run per fault (replaying the clean
	// recording) plus per-rank analysis, no campaign machinery.
	for i, f := range faults {
		wa, err := ma.AnalyzeWorld(f)
		if err != nil {
			t.Fatal(err)
		}
		if d := digestWA(wa); fnv64(d) != fnv64(ref[i]) {
			t.Errorf("fault %d (%v): campaign and sequential loop differ\ncampaign: %s\nloop:     %s", i, f, ref[i], d)
		}
	}

	// Parallel worlds reproduce the reference sequence exactly.
	for _, par := range []int{4} {
		i := 0
		for wa, err := range ma.StreamWorldAnalysis(ctx, nil, copts(par)...) {
			if err != nil {
				t.Fatal(err)
			}
			if wa.Fault != faults[i] {
				t.Fatalf("par=%d: fault %d is %v, want %v (stream order broken)", par, i, wa.Fault, faults[i])
			}
			if d := digestWA(wa); fnv64(d) != fnv64(ref[i]) {
				t.Errorf("par=%d: fault %d digest mismatch\ngot:  %s\nwant: %s", par, i, d, ref[i])
			}
			i++
		}
		if i != tests {
			t.Fatalf("par=%d: %d analyses, want %d", par, i, tests)
		}
	}
}

// TestCheckpointedMPICampaignMatchesDirect is the checkpointed-campaign
// golden test: for a fixed seed, an analyzed MPI campaign — worlds resumed
// from collective-boundary snapshots, per-rank traces stitched from the
// clean prefix — yields per-world results byte-identical (FNV-compared
// digests) to the from-scratch oracle, one MPIAnalyzer.AnalyzeWorld per
// drawn fault, world outcome, propagation, and every rank's full
// FaultAnalysis included, at parallelism 1 and 4. This is the acceptance
// bar for world checkpoints: a pure speedup, invisible in results.
func TestCheckpointedMPICampaignMatchesDirect(t *testing.T) {
	const (
		ranks = 3
		tests = 8
	)
	ma, err := fliptracker.NewMPIAnalyzer("is", ranks)
	if err != nil {
		t.Fatal(err)
	}
	ma.FaultRank = 1
	ctx := context.Background()
	opts := func(par int) []fliptracker.MPIOption {
		return []fliptracker.MPIOption{
			fliptracker.WithTests(tests),
			fliptracker.WithSeed(20181111),
			fliptracker.WithParallelism(par),
		}
	}
	plain, err := ma.NewCampaign(nil, opts(0)...)
	if err != nil {
		t.Fatal(err)
	}
	var ref, refRow []string
	for _, f := range plain.Faults() {
		wa, err := ma.AnalyzeWorld(f)
		if err != nil {
			t.Fatal(err)
		}
		ref = append(ref, digestWA(wa))
		refRow = append(refRow, fmt.Sprintf("%v|%v|%v", wa.Fault, wa.Outcome, wa.Propagation))
	}
	if len(ref) != tests {
		t.Fatalf("from-scratch reference yielded %d analyses, want %d", len(ref), tests)
	}
	for _, par := range []int{1, 4} {
		var got []string
		for wa, err := range ma.StreamWorldAnalysis(ctx, nil, opts(par)...) {
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, digestWA(wa))
		}
		if len(got) != tests {
			t.Fatalf("checkpointed par=%d yielded %d analyses, want %d", par, len(got), tests)
		}
		for i := range ref {
			if fnv64(got[i]) != fnv64(ref[i]) {
				t.Errorf("par=%d world %d: checkpointed differs from from-scratch\ncheckpointed: %s\nfrom scratch: %s",
					par, i, got[i], ref[i])
			}
		}
	}

	// Plain (untraced) campaigns agree with the oracle too.
	i := 0
	for wo, err := range plain.Stream(ctx) {
		if err != nil {
			t.Fatal(err)
		}
		if row := fmt.Sprintf("%v|%v|%v", wo.Fault, wo.Outcome, wo.Propagation); row != refRow[i] {
			t.Errorf("plain world %d: from-scratch %s vs checkpointed %s", i, refRow[i], row)
		}
		i++
	}
}

// TestMPICampaignPlainMatchesAnalyzed pins the cheap path to the expensive
// one: a plain (untraced) campaign's world outcomes and propagation classes
// must match the analyzed campaign's for the same seed — the §II-A
// classification and the Contained/Propagated/WorldCrash split do not depend
// on whether worlds run traced.
func TestMPICampaignPlainMatchesAnalyzed(t *testing.T) {
	ma, err := fliptracker.NewMPIAnalyzer("is", 3)
	if err != nil {
		t.Fatal(err)
	}
	ma.FaultRank = 1
	ctx := context.Background()
	opts := []fliptracker.MPIOption{
		fliptracker.WithTests(8),
		fliptracker.WithSeed(20181111),
		fliptracker.WithParallelism(2),
	}
	type row struct {
		fault   interp.Fault
		outcome fliptracker.Outcome
		class   fliptracker.PropagationClass
	}
	collect := func(c *fliptracker.MPICampaign) []row {
		var out []row
		for wo, err := range c.Stream(ctx) {
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, row{wo.Fault, wo.Outcome, wo.Propagation.Class})
		}
		return out
	}
	plain, err := ma.NewCampaign(nil, opts...)
	if err != nil {
		t.Fatal(err)
	}
	analyzed, err := ma.NewAnalyzedCampaign(nil, opts...)
	if err != nil {
		t.Fatal(err)
	}
	p, a := collect(plain), collect(analyzed)
	if len(p) != len(a) {
		t.Fatalf("plain %d rows, analyzed %d", len(p), len(a))
	}
	for i := range p {
		if p[i] != a[i] {
			t.Errorf("world %d: plain %+v vs analyzed %+v", i, p[i], a[i])
		}
	}
}

// TestMPIWithDropTracesBoundsMemory checks WithDropTraces releases every
// rank trace in collected analyses, and that WithDropTraces does the same
// for single-process analyzed campaigns (the campaign.TraceDropper path).
func TestMPIWithDropTracesBoundsMemory(t *testing.T) {
	ma, err := fliptracker.NewMPIAnalyzer("is", 2)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for wa, err := range ma.StreamWorldAnalysis(context.Background(), nil,
		fliptracker.WithTests(3), fliptracker.WithSeed(5), fliptracker.WithDropTraces()) {
		if err != nil {
			t.Fatal(err)
		}
		for r, fa := range wa.Ranks {
			if fa.Faulty != nil {
				t.Errorf("world %d rank %d retained its faulty trace", n, r)
			}
			if fa.ACL == nil {
				t.Errorf("world %d rank %d lost its analysis artifacts", n, r)
			}
		}
		n++
	}
	if n != 3 {
		t.Fatalf("streamed %d worlds, want 3", n)
	}

	an, err := fliptracker.NewAnalyzer("cg")
	if err != nil {
		t.Fatal(err)
	}
	fas, err := an.AnalyzedCampaign(context.Background(), fliptracker.RegionInternal("cg_b", 0),
		fliptracker.WithTests(4), fliptracker.WithSeed(5), fliptracker.WithDropTraces())
	if err != nil {
		t.Fatal(err)
	}
	if len(fas) != 4 {
		t.Fatalf("%d analyses, want 4", len(fas))
	}
	for i, fa := range fas {
		if fa.Faulty != nil {
			t.Errorf("analysis %d retained its faulty trace", i)
		}
		if fa.ACL == nil || fa.Regions == nil && fa.ACL.InjectionIndex >= 0 {
			t.Errorf("analysis %d lost artifacts", i)
		}
	}
}
