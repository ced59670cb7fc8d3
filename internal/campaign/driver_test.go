package campaign

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"sync/atomic"
	"testing"

	"fliptracker/internal/interp"
	"fliptracker/internal/journal"
)

// fakeOutcome is the driver tests' outcome: the fault and a manifestation
// derived from it alone, as a real engine's would be.
type fakeOutcome struct {
	Index   int
	Fault   interp.Fault
	Outcome Outcome
}

// fakePicker draws steps below 1000 and counts its draws. Its String keeps
// the counter's address out of the journal fingerprint.
type fakePicker struct{ draws *atomic.Int64 }

func (fakePicker) String() string { return "fake" }

func (p fakePicker) Pick(r *rand.Rand) interp.Fault {
	p.draws.Add(1)
	return interp.Fault{Step: uint64(r.Int63n(1000)), Bit: uint8(r.Intn(64))}
}

// fakeCampaign builds a driver over fakePicker whose executor classifies
// most faults Success (so early stopping can fire) and fails the run at
// index failAt when failAt >= 0.
func fakeCampaign(t *testing.T, s Settings, failAt int) (*Campaign[fakeOutcome], *atomic.Int64) {
	t.Helper()
	draws := new(atomic.Int64)
	c, err := New(s, fakePicker{draws}, Executor[fakeOutcome]{
		Engine: journal.EngineInject,
		Config: "fake",
		Plan: func(ctx context.Context, faults []interp.Fault, first int) (func(int) (fakeOutcome, error), error) {
			return func(i int) (fakeOutcome, error) {
				if i < first {
					return fakeOutcome{}, fmt.Errorf("fault %d runs below the window start %d", i, first)
				}
				if i == failAt {
					return fakeOutcome{}, fmt.Errorf("fault %d failed", i)
				}
				o := Success
				if faults[i].Bit < 8 {
					o = Outcome(faults[i].Step % 4)
				}
				return fakeOutcome{Index: i, Fault: faults[i], Outcome: o}, nil
			}, nil
		},
		Record: func(o fakeOutcome) journal.Record {
			return journal.Record{Index: uint64(o.Index), Outcome: uint8(o.Outcome), Fault: o.Fault}
		},
		Replay: func(r journal.Record) fakeOutcome {
			return fakeOutcome{Index: int(r.Index), Fault: r.Fault, Outcome: Outcome(r.Outcome)}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, draws
}

func collect(t *testing.T, seq func(yield func(fakeOutcome, error) bool)) []fakeOutcome {
	t.Helper()
	var out []fakeOutcome
	for o, err := range seq {
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, o)
	}
	return out
}

// TestDriverShardsMatchStream: any parallelism delivers the sequential
// stream, draws nothing beyond construction, and Run and Records (through
// the engine-erased Runner) agree with it. Faults hands out a copy that
// cannot alter the drawn stream. (The name predates the removal of
// sharding, which this test covered too.)
func TestDriverShardsMatchStream(t *testing.T) {
	const tests = 90
	ref, _ := fakeCampaign(t, Settings{Tests: tests, Seed: 4, Parallelism: 1}, -1)
	want := collect(t, ref.Stream(context.Background()))
	if len(want) != tests {
		t.Fatalf("stream yielded %d outcomes, want %d", len(want), tests)
	}
	var wantRes Result
	for i, o := range want {
		if o.Index != i {
			t.Fatalf("outcome %d has index %d", i, o.Index)
		}
		wantRes.Count(o.Outcome)
	}
	for _, par := range []int{0, 2, 3, 7} {
		c, draws := fakeCampaign(t, Settings{Tests: tests, Seed: 4, Parallelism: par}, -1)
		if got := collect(t, c.Stream(context.Background())); !slices.Equal(got, want) {
			t.Errorf("parallelism=%d: stream differs", par)
		}
		res, err := c.Run(context.Background())
		if err != nil || res != wantRes {
			t.Errorf("parallelism=%d: Run %+v %v, want %+v", par, res, err, wantRes)
		}
		var runner Runner = c
		i := 0
		for r, err := range runner.Records(context.Background()) {
			if err != nil || r.Index != uint64(i) || r.Fault != want[i].Fault || Outcome(r.Outcome) != want[i].Outcome {
				t.Fatalf("parallelism=%d: record %d = %+v %v", par, i, r, err)
			}
			i++
		}
		if n := draws.Load(); n != tests {
			t.Errorf("parallelism=%d: %d draws, want %d", par, n, tests)
		}
		faults := c.Faults()
		faults[0].Step++
		if c.Faults()[0] == faults[0] {
			t.Errorf("parallelism=%d: mutating Faults() changed the drawn stream", par)
		}
	}
}

// TestDriverJournalResume: a run at parallelism 4 broken off mid-stream
// resumes from its journal at parallelism 1 to the uninterrupted stream,
// and a campaign with another seed refuses the journal.
func TestDriverJournalResume(t *testing.T) {
	const tests = 50
	ref, _ := fakeCampaign(t, Settings{Tests: tests, Seed: 2}, -1)
	want := collect(t, ref.Stream(context.Background()))
	path := filepath.Join(t.TempDir(), "fake.journal")

	c, _ := fakeCampaign(t, Settings{Tests: tests, Seed: 2, Journal: path, Parallelism: 4}, -1)
	n := 0
	for _, err := range c.Stream(context.Background()) {
		if err != nil {
			t.Fatal(err)
		}
		if n++; n == 17 {
			break
		}
	}
	var progress []int
	c2, _ := fakeCampaign(t, Settings{Tests: tests, Seed: 2, Journal: path, Parallelism: 1,
		Progress: func(done, total int) { progress = append(progress, done) }}, -1)
	if got := collect(t, c2.Stream(context.Background())); !slices.Equal(got, want) {
		t.Fatalf("resumed stream (%d outcomes) differs from the uninterrupted one", len(got))
	}
	if len(progress) != tests || progress[tests-1] != tests {
		t.Errorf("progress over a resumed run: %d calls ending at %v", len(progress), progress[len(progress)-1:])
	}

	other, _ := fakeCampaign(t, Settings{Tests: tests, Seed: 3, Journal: path}, -1)
	if _, err := other.Run(context.Background()); !errors.Is(err, journal.ErrMismatch) {
		t.Fatalf("foreign journal: %v, want journal.ErrMismatch", err)
	}
}

// TestDriverEarlyStop: the stopping rule fires at the same index whatever
// the parallelism.
func TestDriverEarlyStop(t *testing.T) {
	const tests = 400
	s := Settings{Tests: tests, Seed: 1, EarlyStop: true, Confidence: 0.95, Margin: 0.05, Parallelism: 1}
	ref, _ := fakeCampaign(t, s, -1)
	want, err := ref.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if want.Tests < EarlyStopMinTests || want.Tests >= tests {
		t.Fatalf("early stop at %d: degenerate for this test", want.Tests)
	}
	for _, par := range []int{2, 5} {
		s.Parallelism = par
		c, _ := fakeCampaign(t, s, -1)
		if got, err := c.Run(context.Background()); err != nil || got != want {
			t.Errorf("parallelism=%d: %+v %v, want %+v", par, got, err, want)
		}
	}
}

// TestDriverSettingsChecks: construction refuses what no run could honor.
func TestDriverSettingsChecks(t *testing.T) {
	x := Executor[fakeOutcome]{Engine: journal.EngineMPI}
	p := fakePicker{new(atomic.Int64)}
	for name, s := range map[string]Settings{
		"no tests":       {},
		"bad confidence": {Tests: 5, EarlyStop: true, Confidence: 1, Margin: 0.1},
		"bad margin":     {Tests: 5, EarlyStop: true, Confidence: 0.9},
		"NaN confidence": {Tests: 5, EarlyStop: true, Confidence: math.NaN(), Margin: 0.03},
		"NaN margin":     {Tests: 5, EarlyStop: true, Confidence: 0.95, Margin: math.NaN()},
	} {
		if _, err := New(s, p, x); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := New(Settings{Tests: 3}, nil, x); err == nil {
		t.Error("tests without a picker: accepted")
	}
	if _, err := New(Settings{}, nil, x); err == nil {
		t.Error("nil picker: accepted")
	}
}
