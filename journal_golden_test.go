package fliptracker_test

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"fliptracker"
	"fliptracker/internal/inject"
)

// digestFO renders one streamed fault outcome for FNV comparison.
func digestFO(fo fliptracker.FaultOutcome) string {
	return fmt.Sprintf("#%d %s -> %s", fo.Index, fo.Fault.String(), fo.Outcome)
}

// digestWO renders one streamed world outcome — §II-A outcome and
// cross-rank propagation included — for FNV comparison.
func digestWO(wo fliptracker.WorldOutcome) string {
	return fmt.Sprintf("#%d %s -> %s %s", wo.Index, wo.Fault.String(), wo.Outcome, wo.Propagation)
}

// fromScratchInject is the test oracle for an Analyzer campaign: inject.RunOne
// on each of the campaign's drawn faults, digested like digestFO, plus the
// aggregate Result.
func fromScratchInject(t *testing.T, an *fliptracker.Analyzer, c *fliptracker.Campaign) ([]string, fliptracker.CampaignResult) {
	t.Helper()
	var ref []string
	var res fliptracker.CampaignResult
	for i, f := range c.Faults() {
		o, err := inject.RunOne(an.App.NewMachine, an.App.Verify, f)
		if err != nil {
			t.Fatal(err)
		}
		res.Count(o)
		ref = append(ref, digestFO(fliptracker.FaultOutcome{Index: i, Fault: f, Outcome: o}))
	}
	return ref, res
}

// fromScratchMPI is the test oracle for an MPIAnalyzer campaign: one
// MPIAnalyzer.AnalyzeWorld per drawn fault, digested like digestWO.
func fromScratchMPI(t *testing.T, ma *fliptracker.MPIAnalyzer, c *fliptracker.MPICampaign) []string {
	t.Helper()
	var ref []string
	for i, f := range c.Faults() {
		wa, err := ma.AnalyzeWorld(f)
		if err != nil {
			t.Fatal(err)
		}
		ref = append(ref, digestWO(fliptracker.WorldOutcome{Index: i, Fault: f, Outcome: wa.Outcome, Propagation: wa.Propagation}))
	}
	return ref
}

// TestJournalResumeGoldenInject is the acceptance matrix for durable
// single-process campaigns: a journaled campaign killed (Stream break — the
// journal holds exactly the committed prefix) at three distinct fault
// indices resumes, at parallelism 1 and 4, to an outcome stream and Result
// FNV-identical to the from-scratch oracle's.
func TestJournalResumeGoldenInject(t *testing.T) {
	const tests = 24
	an, err := fliptracker.NewAnalyzer("kmeans")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	opts := func(extra ...fliptracker.CampaignOption) []fliptracker.CampaignOption {
		return append([]fliptracker.CampaignOption{
			fliptracker.WithTests(tests), fliptracker.WithSeed(20181111),
		}, extra...)
	}

	// The reference digest: every drawn fault run from scratch.
	c, err := an.NewCampaign(fliptracker.WholeProgram(), opts()...)
	if err != nil {
		t.Fatal(err)
	}
	ref, wantRes := fromScratchInject(t, an, c)
	if len(ref) != tests {
		t.Fatalf("from-scratch reference ran %d faults, want %d", len(ref), tests)
	}
	want := fnv64(strings.Join(ref, "\n"))

	for _, par := range []int{1, 4} {
		for _, kill := range []int{2, 5, 7} {
			name := fmt.Sprintf("par%d/kill%d", par, kill)
			path := filepath.Join(t.TempDir(), "c.journal")
			run := opts(fliptracker.WithJournal(path), fliptracker.WithParallelism(par))

			c, err := an.NewCampaign(fliptracker.WholeProgram(), run...)
			if err != nil {
				t.Fatal(err)
			}
			for fo, err := range c.Stream(ctx) {
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if fo.Index == kill {
					break
				}
			}

			var got []string
			c2, err := an.NewCampaign(fliptracker.WholeProgram(), run...)
			if err != nil {
				t.Fatal(err)
			}
			for fo, err := range c2.Stream(ctx) {
				if err != nil {
					t.Fatalf("%s: resume: %v", name, err)
				}
				got = append(got, digestFO(fo))
			}
			if g := fnv64(strings.Join(got, "\n")); g != want {
				t.Errorf("%s: resumed stream digest %#x, want %#x", name, g, want)
			}

			// A third pass replays the now-complete journal without
			// injecting anything; its Result must match too.
			res, err := an.Campaign(ctx, fliptracker.WholeProgram(), run...)
			if err != nil {
				t.Fatalf("%s: replay: %v", name, err)
			}
			if res != wantRes {
				t.Errorf("%s: replayed Result %+v, want %+v", name, res, wantRes)
			}
		}
	}
}

// TestJournalResumeGoldenMPI is the same acceptance matrix for world
// campaigns: kills at three indices, parallelism 1 and 4, resumed outcome
// stream (world outcome and cross-rank propagation included) FNV-identical
// to the from-scratch oracle's.
func TestJournalResumeGoldenMPI(t *testing.T) {
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
	opts := func(extra ...fliptracker.MPIOption) []fliptracker.MPIOption {
		return append([]fliptracker.MPIOption{
			fliptracker.WithTests(tests), fliptracker.WithSeed(20181111),
		}, extra...)
	}

	c, err := ma.NewCampaign(nil, opts()...)
	if err != nil {
		t.Fatal(err)
	}
	ref := fromScratchMPI(t, ma, c)
	if len(ref) != tests {
		t.Fatalf("from-scratch reference ran %d worlds, want %d", len(ref), tests)
	}
	want := fnv64(strings.Join(ref, "\n"))

	for _, par := range []int{1, 4} {
		for _, kill := range []int{1, 3, 5} {
			name := fmt.Sprintf("par%d/kill%d", par, kill)
			path := filepath.Join(t.TempDir(), "w.journal")
			run := opts(fliptracker.WithJournal(path), fliptracker.WithParallelism(par))

			c, err := ma.NewCampaign(nil, run...)
			if err != nil {
				t.Fatal(err)
			}
			for wo, err := range c.Stream(ctx) {
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if wo.Index == kill {
					break
				}
			}

			var got []string
			c2, err := ma.NewCampaign(nil, run...)
			if err != nil {
				t.Fatal(err)
			}
			for wo, err := range c2.Stream(ctx) {
				if err != nil {
					t.Fatalf("%s: resume: %v", name, err)
				}
				got = append(got, digestWO(wo))
			}
			if g := fnv64(strings.Join(got, "\n")); g != want {
				t.Errorf("%s: resumed stream digest %#x, want %#x", name, g, want)
			}
		}
	}
}
