package mpi

import (
	"context"
	"errors"
	"path/filepath"
	"testing"

	"fliptracker/internal/campaign"
	"fliptracker/internal/journal"
)

// TestJournalResumeWorlds: a journaled world campaign broken at world k
// resumes to the from-scratch oracle's outcome stream — fault, §II-A
// classification AND cross-rank propagation (class plus diverged-rank set)
// all round-tripping through the on-disk records. Resume deliberately
// changes parallelism.
func TestJournalResumeWorlds(t *testing.T) {
	const tests = 16
	var want []string
	for _, wo := range fromScratch(t, testCampaign(t, tests)) {
		want = append(want, digestOutcome(wo))
	}

	for _, k := range []int{0, 4, 11} {
		path := filepath.Join(t.TempDir(), "w.journal")
		c := testCampaign(t, tests, campaign.WithJournal(path), campaign.WithParallelism(4))
		for wo, err := range c.Stream(context.Background()) {
			if err != nil {
				t.Fatal(err)
			}
			if d := digestOutcome(wo); d != want[wo.Index] {
				t.Fatalf("k=%d world %d: %s, want %s", k, wo.Index, d, want[wo.Index])
			}
			if wo.Index == k {
				break
			}
		}

		var got []string
		c2 := testCampaign(t, tests, campaign.WithJournal(path), campaign.WithParallelism(1))
		for wo, err := range c2.Stream(context.Background()) {
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, digestOutcome(wo))
		}
		if len(got) != tests {
			t.Fatalf("k=%d: resumed stream yielded %d worlds, want %d", k, len(got), tests)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("k=%d world %d:\ngot:  %s\nwant: %s", k, i, got[i], want[i])
			}
		}
	}
}

// TestJournalWorldMismatch: MPI-specific identity — the world shape (rank
// count, fault rank, world seed, step limit) is part of the fingerprint, so
// a journal recorded for one world geometry refuses another. An inject
// journal is refused outright by the engine tag.
func TestJournalWorldMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.journal")
	if _, err := testCampaign(t, 8, campaign.WithJournal(path)).Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Same options, different world shape: rebuild the campaign by hand
	// with FaultRank 0 instead of 1.
	c := testCampaign(t, 8)
	cfg := c.base
	cfg.FaultRank = 0
	c2, err := NewCampaign(c.prog, cfg, c.targets, campaign.WithTests(8), campaign.WithSeed(7), campaign.WithJournal(path))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Run(context.Background()); !errors.Is(err, journal.ErrMismatch) {
		t.Fatalf("fault-rank change: err = %v, want journal.ErrMismatch", err)
	}
}
