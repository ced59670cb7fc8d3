package inject

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"fliptracker/internal/campaign"
	"fliptracker/internal/interp"
	"fliptracker/internal/journal"
	"fliptracker/internal/trace"
)

// TestJournalResumeAfterBreak: break out of a journaled Stream at fault
// index k (the polite form of a kill — records 0..k are committed), then
// resume with a fresh campaign; the concatenated outcome stream and the
// merged Result must equal the from-scratch oracle's exactly. Resume runs
// at a different parallelism, pinning that it stays result-invariant across
// the journal boundary.
func TestJournalResumeAfterBreak(t *testing.T) {
	p := buildToleranceProg(t)
	steps := totalSteps(t, p)
	targets := UniformDst{TotalSteps: steps}
	base := []Option{campaign.WithTests(40), campaign.WithSeed(20181111)}

	want := fromScratch(t, mustCampaign(t, p, targets, base...))
	wantRes := tally(want)

	for _, k := range []int{0, 3, 17} {
		path := filepath.Join(t.TempDir(), "c.journal")
		var got []FaultOutcome
		c := mustCampaign(t, p, targets,
			append(base, campaign.WithJournal(path), campaign.WithParallelism(4))...)
		for fo, err := range c.Stream(context.Background()) {
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, fo)
			if fo.Index == k {
				break
			}
		}

		c2 := mustCampaign(t, p, targets,
			append(base, campaign.WithJournal(path), campaign.WithParallelism(1))...)
		for fo, err := range c2.Stream(context.Background()) {
			if err != nil {
				t.Fatal(err)
			}
			if fo.Index < len(got) {
				// The replayed prefix duplicates what the first run already
				// delivered; check it matches rather than appending twice.
				if !reflect.DeepEqual(fo, got[fo.Index]) {
					t.Fatalf("k=%d: replayed outcome %d = %+v, want %+v", k, fo.Index, fo, got[fo.Index])
				}
				continue
			}
			got = append(got, fo)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("k=%d: resumed outcome stream diverges from the from-scratch oracle", k)
		}

		res, err := mustCampaign(t, p, targets, append(base, campaign.WithJournal(path))...).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if res != wantRes {
			t.Fatalf("k=%d: replayed Result %+v, want %+v", k, res, wantRes)
		}
	}
}

// TestJournalCancelMidRun: cancelling the context mid-campaign is the
// harsh kill — workers stop wherever they are, the journal keeps whatever
// was committed, and a resume completes the campaign to the exact
// uninterrupted Result. Runs under -race in CI, so the cancel/append race
// surface is exercised too.
func TestJournalCancelMidRun(t *testing.T) {
	p := buildToleranceProg(t)
	steps := totalSteps(t, p)
	targets := UniformDst{TotalSteps: steps}
	base := []Option{campaign.WithTests(40), campaign.WithSeed(7)}

	want, err := mustCampaign(t, p, targets, base...).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	for _, k := range []int{1, 8, 30} {
		path := filepath.Join(t.TempDir(), "c.journal")
		ctx, cancel := context.WithCancel(context.Background())
		c := mustCampaign(t, p, targets, append(base,
			campaign.WithJournal(path), campaign.WithParallelism(4),
			campaign.WithProgress(func(done, total int) {
				if done > k {
					cancel()
				}
			}))...)
		if _, err := c.Run(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("k=%d: cancelled run returned %v, want context.Canceled", k, err)
		}
		cancel()

		// The journal holds a committed prefix; whatever its exact length,
		// the resume must land on the uninterrupted Result.
		c2 := mustCampaign(t, p, targets, append(base, campaign.WithJournal(path))...)
		got, err := c2.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("k=%d: resumed Result %+v, want %+v", k, got, want)
		}
	}
}

// TestJournalMismatch: a journal recorded under one campaign refuses to
// resume a different one — other seed, other test count, other population —
// with journal.ErrMismatch, never by silently mixing streams.
func TestJournalMismatch(t *testing.T) {
	p := buildToleranceProg(t)
	steps := totalSteps(t, p)
	targets := UniformDst{TotalSteps: steps}
	path := filepath.Join(t.TempDir(), "c.journal")
	if _, err := mustCampaign(t, p, targets,
		campaign.WithTests(20), campaign.WithSeed(1), campaign.WithJournal(path)).Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	for name, opts := range map[string][]Option{
		"seed":       {campaign.WithTests(20), campaign.WithSeed(2), campaign.WithJournal(path)},
		"tests":      {campaign.WithTests(30), campaign.WithSeed(1), campaign.WithJournal(path)},
		"population": {campaign.WithTests(20), campaign.WithSeed(1), campaign.WithJournal(path)},
		"app":        {campaign.WithTests(20), campaign.WithSeed(1), campaign.WithJournal(path), campaign.WithJournalApp("other")},
	} {
		tg := targets
		if name == "population" {
			tg = UniformDst{TotalSteps: steps - 1}
		}
		_, err := mustCampaign(t, p, tg, opts...).Run(context.Background())
		if !errors.Is(err, journal.ErrMismatch) {
			t.Errorf("%s: err = %v, want journal.ErrMismatch", name, err)
		}
	}
}

// TestJournalFaultStreamCrossCheck: even a journal whose header matches
// (here: forged with the campaign's own header) cannot replay outcomes for
// faults the campaign never drew — the per-record cross-check against the
// drawn stream catches it.
func TestJournalFaultStreamCrossCheck(t *testing.T) {
	p := buildToleranceProg(t)
	steps := totalSteps(t, p)
	targets := UniformDst{TotalSteps: steps}
	path := filepath.Join(t.TempDir(), "c.journal")

	c := mustCampaign(t, p, targets, campaign.WithTests(10), campaign.WithSeed(3), campaign.WithJournal(path))
	j, err := journal.Create(path, c.Header())
	if err != nil {
		t.Fatal(err)
	}
	// A fault no draw from this population produces: step far beyond the
	// program's dynamic length.
	if err := j.Append(journal.Record{Index: 0, Outcome: uint8(Success),
		Fault: interp.Fault{Step: steps * 1000, Bit: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(context.Background()); !errors.Is(err, journal.ErrMismatch) {
		t.Fatalf("forged record: err = %v, want journal.ErrMismatch", err)
	}
}

// TestJournalRejectsAnalysis: analysis payloads are not journalable, so the
// combination is refused at construction, not silently half-journaled.
func TestJournalRejectsAnalysis(t *testing.T) {
	p := buildToleranceProg(t)
	m, err := makeMachine(p)()
	if err != nil {
		t.Fatal(err)
	}
	m.Mode = interp.TraceFull
	clean, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewCampaign(makeMachine(p), verifyNear10, UniformDst{TotalSteps: clean.Steps},
		campaign.WithTests(10),
		campaign.WithJournal(filepath.Join(t.TempDir(), "c.journal")),
		WithAnalysis(clean, func(i int, f interp.Fault, tr *trace.Trace, o Outcome) (any, error) { return nil, nil }))
	if err == nil {
		t.Fatal("WithJournal+WithAnalysis accepted, want construction error")
	}
}
