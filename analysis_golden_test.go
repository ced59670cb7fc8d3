package fliptracker_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"fliptracker"
)

// digestFA renders the analysis artifacts the golden tests pin: the outcome,
// the ACL table's headline numbers, and every region report's comparison,
// pattern bitset and evidence count. Two FaultAnalysis values with equal
// digests are byte-identical in everything the paper's tables consume.
func digestFA(fa *fliptracker.FaultAnalysis) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "outcome=%s acl.peak=%d acl.inj=%d acl.div=%d acl.events=%d acl.intervals=%d regions=%d",
		fa.Outcome, fa.ACL.Peak, fa.ACL.InjectionIndex, fa.ACL.DivergenceIndex, len(fa.ACL.Events), len(fa.ACL.Intervals), len(fa.Regions))
	for _, rr := range fa.Regions {
		found := ""
		for p := 0; p < fliptracker.NumPatterns; p++ {
			if rr.Patterns.Found[p] {
				found += "1"
			} else {
				found += "0"
			}
		}
		fmt.Fprintf(&sb, " | %s#%d in=%d out=%d div=%d c1=%v c2=%v maxin=%.6g maxout=%.6g drop=%d pat=%s ev=%d",
			rr.Region.Name, rr.Instance, len(rr.Comparison.CorruptedInputs), len(rr.Comparison.CorruptedOutputs),
			rr.Comparison.DivergedAt, rr.Comparison.Case1, rr.Comparison.Case2,
			rr.Comparison.MaxInputErr, rr.Comparison.MaxOutputErr, rr.ACLDrop, found, len(rr.Patterns.Evidence))
	}
	return sb.String()
}

// fnv64 hashes a digest (FNV-1a) so the goldens stay one line each.
func fnv64(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// TestAnalyzeFaultGolden pins AnalyzeFault to digests captured from the
// pre-CleanIndex implementation (which re-derived every clean-run artifact
// per fault): the v2 pipeline — shared spans, cached clean DDDGs,
// CompareRegionWith, the event-indexed pattern Detector, preallocated
// faulty traces — must reproduce the legacy analysis byte-identically.
//
// One intentional deviation from the captured legacy digests: cg/mid-dst-40
// targets a step whose instruction writes no destination, so the fault
// never fires. Legacy AnalyzeFault reported such runs as Success; v2
// classifies them NotApplied (matching campaign classification — the fix
// for analyzed and plain campaigns disagreeing on the same seed). Its
// pinned digest differs from the legacy capture only in that outcome field.
func TestAnalyzeFaultGolden(t *testing.T) {
	golden := []struct {
		app, name string
		want      uint64
	}{
		{"cg", "mid-dst-40", 0xc2ad8a860d69b4f4}, // legacy digest had outcome=success (see above)
		{"cg", "third-dst-30", 0xa371f8f770100262},
		{"cg", "late-dst-12", 0x7b6b073ad99eeef8},
		{"cg", "early-high-62", 0x89a702ffec7f6b6d},
		{"mg", "mid-dst-40", 0x33ccf16a56582c5f},
		{"mg", "third-dst-30", 0x7c1ae3a6f1331f62},
		{"mg", "late-dst-12", 0xf47f5be9b5b73dff},
		{"mg", "early-high-62", 0x1839f6e829136229},
	}
	faults := func(steps uint64) map[string]fliptracker.Fault {
		return map[string]fliptracker.Fault{
			"mid-dst-40":    {Step: steps / 2, Bit: 40, Kind: fliptracker.FaultDst},
			"third-dst-30":  {Step: steps / 3, Bit: 30, Kind: fliptracker.FaultDst},
			"late-dst-12":   {Step: steps - steps/10, Bit: 12, Kind: fliptracker.FaultDst},
			"early-high-62": {Step: steps / 10, Bit: 62, Kind: fliptracker.FaultDst},
		}
	}
	analyzers := map[string]*fliptracker.Analyzer{}
	for _, g := range golden {
		an, ok := analyzers[g.app]
		if !ok {
			var err error
			an, err = fliptracker.NewAnalyzer(g.app)
			if err != nil {
				t.Fatal(err)
			}
			analyzers[g.app] = an
		}
		clean, err := an.CleanTrace()
		if err != nil {
			t.Fatal(err)
		}
		fa, err := an.AnalyzeFault(faults(clean.Steps)[g.name])
		if err != nil {
			t.Fatalf("%s/%s: %v", g.app, g.name, err)
		}
		d := digestFA(fa)
		if got := fnv64(d); got != g.want {
			t.Errorf("%s/%s: digest hash %#x, want legacy golden %#x\ndigest: %s", g.app, g.name, got, g.want, d)
		}
	}
}

// TestAnalyzedCampaignMatchesAnalyzeFaultLoop pins the analyzed-campaign
// contract: for a fixed seed, AnalyzedCampaign yields exactly the analyses
// a loop of per-fault AnalyzeFault calls over the campaign's drawn faults
// produces — same outcomes, same patterns found, same ACL peaks,
// byte-identical digests — at parallelism 1 and 4, with the per-fault order
// matching the campaign's deterministic fault stream.
func TestAnalyzedCampaignMatchesAnalyzeFaultLoop(t *testing.T) {
	an, err := fliptracker.NewAnalyzer("mg")
	if err != nil {
		t.Fatal(err)
	}
	const tests = 12
	ctx := context.Background()
	pop := fliptracker.RegionInternal("mg_b", 0)
	copts := func(par int) []fliptracker.CampaignOption {
		return []fliptracker.CampaignOption{
			fliptracker.WithTests(tests),
			fliptracker.WithSeed(20181111),
			fliptracker.WithParallelism(par),
		}
	}

	// The reference: the campaign's drawn faults, each analyzed from
	// scratch with the per-fault entry point.
	c, err := an.NewAnalyzedCampaign(pop, copts(1)...)
	if err != nil {
		t.Fatal(err)
	}
	faults := c.Faults()
	if len(faults) != tests {
		t.Fatalf("campaign drew %d faults, want %d", len(faults), tests)
	}
	var ref []string
	for _, f := range faults {
		fa, err := an.AnalyzeFault(f)
		if err != nil {
			t.Fatal(err)
		}
		ref = append(ref, digestFA(fa))
	}

	// Every parallelism reproduces the reference sequence exactly.
	for _, par := range []int{1, 4} {
		fas, err := an.AnalyzedCampaign(ctx, pop, copts(par)...)
		if err != nil {
			t.Fatal(err)
		}
		if len(fas) != tests {
			t.Fatalf("par=%d: %d analyses, want %d", par, len(fas), tests)
		}
		for i, fa := range fas {
			if fa.Fault != faults[i] {
				t.Fatalf("par=%d: fault %d is %v, want %v (stream order broken)", par, i, fa.Fault, faults[i])
			}
			if d := digestFA(fa); d != ref[i] {
				t.Errorf("par=%d: fault %d digest mismatch\ngot:  %s\nwant: %s", par, i, d, ref[i])
			}
		}
	}
}
