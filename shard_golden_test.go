package fliptracker_test

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"fliptracker"
)

// TestCoordinatorGoldenInject is the sharded-execution acceptance matrix
// for single-process campaigns: a campaign built WithShards merges its
// shards into a stream FNV-identical to the from-scratch oracle
// (inject.RunOne on every drawn fault) at shard counts 1, 2, and 4, and the
// aggregate Results are equal. (The name predates the removal of the
// separate coordinator API; sharding is now a campaign option.)
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

	for _, shards := range []int{1, 2, 4} {
		name := fmt.Sprintf("shards%d", shards)
		c, err := an.NewCampaign(fliptracker.WholeProgram(),
			opts(fliptracker.WithParallelism(2), fliptracker.WithShards(shards))...)
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
			t.Errorf("%s: merged stream digest %#x (%d outcomes), want %#x (%d)",
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
}

// TestCoordinatorGoldenMPI is the same matrix for world campaigns: merged
// sharded world streams (outcome and cross-rank propagation included)
// FNV-identical to the from-scratch oracle (MPIAnalyzer.AnalyzeWorld on
// every drawn fault) at shard counts 1, 2, 4.
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

	for _, shards := range []int{1, 2, 4} {
		name := fmt.Sprintf("shards%d", shards)
		c, err := ma.NewCampaign(nil, opts(fliptracker.WithParallelism(2), fliptracker.WithShards(shards))...)
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
			t.Errorf("%s: merged stream digest %#x (%d worlds), want %#x (%d)",
				name, g, len(got), want, len(ref))
		}
	}
}

// TestCoordinatorResumeGolden: a campaign run as 4 shards and killed
// mid-run (Stream break — the journal holds exactly the committed prefix)
// resumes as 3 shards to the FNV-identical stream, and the finished journal
// also replays unsharded — sharding stays out of the journal's identity.
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
		path := filepath.Join(t.TempDir(), "sharded.journal")
		mk := func(shards int) (*fliptracker.Campaign, error) {
			return an.NewCampaign(fliptracker.WholeProgram(), opts(fliptracker.WithParallelism(2),
				fliptracker.WithShards(shards), fliptracker.WithJournal(path))...)
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

		co2, err := mk(3)
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
			t.Errorf("%s: resumed merged stream digest %#x, want %#x", name, g, want)
		}

		// The finished sharded journal replays unsharded.
		res, err := an.Campaign(ctx, fliptracker.WholeProgram(), opts(fliptracker.WithJournal(path))...)
		if err != nil {
			t.Fatalf("%s: engine replay: %v", name, err)
		}
		if res != wantRes {
			t.Errorf("%s: engine-replayed Result %+v, want %+v", name, res, wantRes)
		}
	}
}
