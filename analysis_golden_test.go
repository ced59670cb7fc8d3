package fliptracker_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
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

// goldenFaults is the named fault set of the AnalyzeFault goldens, placed
// relative to the clean run's step count.
func goldenFaults(steps uint64) map[string]fliptracker.Fault {
	return map[string]fliptracker.Fault{
		"mid-dst-40":    {Step: steps / 2, Bit: 40, Kind: fliptracker.FaultDst},
		"third-dst-30":  {Step: steps / 3, Bit: 30, Kind: fliptracker.FaultDst},
		"late-dst-12":   {Step: steps - steps/10, Bit: 12, Kind: fliptracker.FaultDst},
		"early-high-62": {Step: steps / 10, Bit: 62, Kind: fliptracker.FaultDst},
	}
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
		fa, err := an.AnalyzeFault(goldenFaults(clean.Steps)[g.name])
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

// digestFAFull hashes the full content of an analysis, where digestFA
// hashes only counts and maxima: the whole ACL Series, every Event and
// Interval, every region comparison delta (values, types and the ErrMag
// bits) and every pattern's evidence, sorted so that evidence order does
// not matter. A value-level change in any per-fault analysis kernel moves
// this digest even when every count stays the same.
func digestFAFull(fa *fliptracker.FaultAnalysis) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "outcome=%s\n", fa.Outcome)
	r := fa.ACL
	fmt.Fprintf(h, "inj=%d div=%d peak=%d n=%d\n", r.InjectionIndex, r.DivergenceIndex, r.Peak, len(r.Series))
	var buf [4]byte
	for _, v := range r.Series {
		binary.LittleEndian.PutUint32(buf[:], uint32(v))
		h.Write(buf[:])
	}
	for _, e := range r.Events {
		fmt.Fprintf(h, "e %d %d %d %d\n", e.RecIndex, e.Loc, e.Kind, e.SID)
	}
	for _, iv := range r.Intervals {
		fmt.Fprintf(h, "i %d %d %d %v\n", iv.Loc, iv.Begin, iv.End, iv.ByOverwrite)
	}
	for _, rr := range fa.Regions {
		c := rr.Comparison
		fmt.Fprintf(h, "region %s#%d div=%d c1=%v c2=%v maxin=%x maxout=%x drop=%d\n",
			rr.Region.Name, rr.Instance, c.DivergedAt, c.Case1, c.Case2,
			math.Float64bits(c.MaxInputErr), math.Float64bits(c.MaxOutputErr), rr.ACLDrop)
		for _, d := range c.CorruptedInputs {
			fmt.Fprintf(h, "in %d %d %d %d %x\n", d.Loc, d.Correct, d.Faulty, d.Typ, math.Float64bits(d.ErrMag))
		}
		for _, d := range c.CorruptedOutputs {
			fmt.Fprintf(h, "out %d %d %d %d %x\n", d.Loc, d.Correct, d.Faulty, d.Typ, math.Float64bits(d.ErrMag))
		}
		fmt.Fprintf(h, "found %v\n", rr.Patterns.Found)
		ev := make([]string, len(rr.Patterns.Evidence))
		for i, e := range rr.Patterns.Evidence {
			ev[i] = fmt.Sprintf("%020d %d %d %d %d %s", e.Loc, e.Pattern, e.RecIndex, e.SID, e.Line, e.Note)
		}
		sort.Strings(ev)
		for _, s := range ev {
			fmt.Fprintln(h, s)
		}
	}
	return h.Sum64()
}

// TestAnalyzeFaultFullContentGolden pins the full content of
// TestAnalyzeFaultGolden's analyses (digestFAFull), captured before the
// analysis kernels read the columnar trace directly: the one-pass region
// comparison, the narrowed ACL read postings and the column-read
// repeated-additions scan must reproduce the graph-based originals value
// for value.
func TestAnalyzeFaultFullContentGolden(t *testing.T) {
	golden := []struct {
		app, name string
		want      uint64
	}{
		{"cg", "mid-dst-40", 0x4027173585f9dc1a},
		{"cg", "third-dst-30", 0xe3e3948b09de98f3},
		{"cg", "late-dst-12", 0x1688d26ff3857a03},
		{"cg", "early-high-62", 0xe628a2fcfcf9ead3},
		{"mg", "mid-dst-40", 0xccfb094f77ec9630},
		{"mg", "third-dst-30", 0xd097157fea403335},
		{"mg", "late-dst-12", 0x09834957c2ee42cb},
		{"mg", "early-high-62", 0xb7a35687425e720a},
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
		fa, err := an.AnalyzeFault(goldenFaults(clean.Steps)[g.name])
		if err != nil {
			t.Fatalf("%s/%s: %v", g.app, g.name, err)
		}
		if got := digestFAFull(fa); got != g.want {
			t.Errorf("%s/%s: full-content digest %#x, want %#x", g.app, g.name, got, g.want)
		}
	}
}
