package fliptracker_test

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"fliptracker"
	"fliptracker/internal/core"
)

// TestCoordinatorGoldenInject is the execution-placement acceptance matrix
// for single-process campaigns: the stream is FNV-identical to the
// from-scratch oracle (inject.RunOne on every drawn fault) at parallelism 1,
// 2 and 4, and the aggregate Results are equal. A spec that still carries
// the deprecated shard count builds the same stream. (The name predates the
// removal of the coordinator and of sharding.)
func TestCoordinatorGoldenInject(t *testing.T) {
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

	for _, par := range []int{1, 2, 4} {
		name := fmt.Sprintf("parallelism%d", par)
		c, err := an.NewCampaign(fliptracker.WholeProgram(), opts(fliptracker.WithParallelism(par))...)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for fo, err := range c.Stream(ctx) {
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got = append(got, digestFO(fo))
		}
		if g := fnv64(strings.Join(got, "\n")); g != want {
			t.Errorf("%s: stream digest %#x (%d outcomes), want %#x (%d)",
				name, g, len(got), want, len(ref))
		}
		res, err := c.Run(ctx)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res != wantRes {
			t.Errorf("%s: Run %+v, want %+v", name, res, wantRes)
		}
	}

	// The service's path: a spec with the deprecated Shards, built by
	// core.Spec.Build and read as journal records.
	spec := core.Spec{App: "kmeans", Engine: "inject", Seed: 20181111, Tests: tests, Shards: 4}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	runner, err := spec.Build(&core.Analyzers{}, "")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for r, err := range runner.Records(ctx) {
		if err != nil {
			t.Fatalf("spec: %v", err)
		}
		got = append(got, digestFO(fliptracker.FaultOutcome{Index: int(r.Index), Fault: r.Fault, Outcome: fliptracker.Outcome(r.Outcome)}))
	}
	if g := fnv64(strings.Join(got, "\n")); g != want {
		t.Errorf("spec with shards 4: stream digest %#x (%d outcomes), want %#x (%d)", g, len(got), want, len(ref))
	}
}

// TestCoordinatorGoldenMPI is the same matrix for world campaigns: world
// streams (outcome and cross-rank propagation included) FNV-identical to
// the from-scratch oracle (MPIAnalyzer.AnalyzeWorld on every drawn fault)
// at parallelism 1, 2 and 4.
func TestCoordinatorGoldenMPI(t *testing.T) {
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

	for _, par := range []int{1, 2, 4} {
		name := fmt.Sprintf("parallelism%d", par)
		c, err := ma.NewCampaign(nil, opts(fliptracker.WithParallelism(par))...)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for wo, err := range c.Stream(ctx) {
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got = append(got, digestWO(wo))
		}
		if g := fnv64(strings.Join(got, "\n")); g != want {
			t.Errorf("%s: stream digest %#x (%d worlds), want %#x (%d)",
				name, g, len(got), want, len(ref))
		}
	}
}

// TestCoordinatorResumeGolden: a journaled campaign run at parallelism 4
// and killed mid-run (Stream break — the journal holds exactly the
// committed prefix) resumes at parallelism 1 to the FNV-identical stream,
// and the finished journal replays to the uninterrupted Result —
// parallelism stays out of the journal's identity.
func TestCoordinatorResumeGolden(t *testing.T) {
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

	var ref []string
	c, err := an.NewCampaign(fliptracker.WholeProgram(), opts()...)
	if err != nil {
		t.Fatal(err)
	}
	for fo, err := range c.Stream(ctx) {
		if err != nil {
			t.Fatal(err)
		}
		ref = append(ref, digestFO(fo))
	}
	want := fnv64(strings.Join(ref, "\n"))
	wantRes, err := an.Campaign(ctx, fliptracker.WholeProgram(), opts()...)
	if err != nil {
		t.Fatal(err)
	}

	for _, kill := range []int{2, 7} {
		name := fmt.Sprintf("kill%d", kill)
		path := filepath.Join(t.TempDir(), "campaign.journal")
		mk := func(par int) (*fliptracker.Campaign, error) {
			return an.NewCampaign(fliptracker.WholeProgram(), opts(fliptracker.WithParallelism(par),
				fliptracker.WithJournal(path))...)
		}

		co, err := mk(4)
		if err != nil {
			t.Fatal(err)
		}
		for fo, err := range co.Stream(ctx) {
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if fo.Index == kill {
				break
			}
		}

		co2, err := mk(1)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for fo, err := range co2.Stream(ctx) {
			if err != nil {
				t.Fatalf("%s: resume: %v", name, err)
			}
			got = append(got, digestFO(fo))
		}
		if g := fnv64(strings.Join(got, "\n")); g != want {
			t.Errorf("%s: resumed stream digest %#x, want %#x", name, g, want)
		}

		// The finished journal replays at the default parallelism.
		res, err := an.Campaign(ctx, fliptracker.WholeProgram(), opts(fliptracker.WithJournal(path))...)
		if err != nil {
			t.Fatalf("%s: engine replay: %v", name, err)
		}
		if res != wantRes {
			t.Errorf("%s: engine-replayed Result %+v, want %+v", name, res, wantRes)
		}
	}
}
