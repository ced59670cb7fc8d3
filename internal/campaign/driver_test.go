package campaign

import (
	"context"
	"errors"
	"fmt"
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
		Plan: func(ctx context.Context, faults []interp.Fault, live []int) (func(int) (fakeOutcome, error), error) {
			return func(i int) (fakeOutcome, error) {
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

// TestDriverShardsMatchStream: any shard count and shard worker count
// deliver the single-window stream, draw nothing beyond construction, and
// Run and Records (through the engine-erased Runner) agree with it. Faults
// hands out a copy that cannot alter the drawn stream.
func TestDriverShardsMatchStream(t *testing.T) {
	const tests = 90
	ref, _ := fakeCampaign(t, Settings{Tests: tests, Seed: 4, Parallelism: 3}, -1)
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
	for _, shards := range []int{0, 1, 2, 3, 7} {
		for _, workers := range []int{0, 1, 2} {
			c, draws := fakeCampaign(t, Settings{Tests: tests, Seed: 4, Parallelism: 2}, -1)
			sc, err := c.With(func(s *Settings) { s.Shards, s.Workers = shards, workers })
			if err != nil {
				t.Fatal(err)
			}
			if got := collect(t, sc.Stream(context.Background())); !slices.Equal(got, want) {
				t.Errorf("shards=%d workers=%d: merged stream differs", shards, workers)
			}
			res, err := sc.Run(context.Background())
			if err != nil || res != wantRes {
				t.Errorf("shards=%d workers=%d: Run %+v %v, want %+v", shards, workers, res, err, wantRes)
			}
			var runner Runner = sc
			i := 0
			for r, err := range runner.Records(context.Background()) {
				if err != nil || r.Index != uint64(i) || r.Fault != want[i].Fault || Outcome(r.Outcome) != want[i].Outcome {
					t.Fatalf("shards=%d workers=%d: record %d = %+v %v", shards, workers, i, r, err)
				}
				i++
			}
			if n := draws.Load(); n != tests {
				t.Errorf("shards=%d workers=%d: %d draws, want %d", shards, workers, n, tests)
			}
			faults := sc.Faults()
			faults[0].Step++
			if sc.Faults()[0] == faults[0] {
				t.Errorf("shards=%d workers=%d: mutating Faults() changed the drawn stream", shards, workers)
			}
		}
	}
}

// TestPlan pins the shard planner: exact contiguous partition, near-equal
// sizes, clamping, and the empty cases.
func TestPlan(t *testing.T) {
	if s := Plan(0, 4); s != nil {
		t.Errorf("Plan(0, 4) = %v, want nil", s)
	}
	if s := Plan(-3, 4); s != nil {
		t.Errorf("Plan(-3, 4) = %v, want nil", s)
	}
	for _, tc := range []struct{ tests, shards, wantShards int }{
		{10, 1, 1}, {10, 3, 3}, {10, 10, 10}, {3, 10, 3}, {7, 0, 1}, {7, -2, 1}, {1, 1, 1},
	} {
		got := Plan(tc.tests, tc.shards)
		if len(got) != tc.wantShards {
			t.Fatalf("Plan(%d, %d) has %d shards, want %d", tc.tests, tc.shards, len(got), tc.wantShards)
		}
		next := 0
		for i, s := range got {
			if s.First != next {
				t.Fatalf("Plan(%d, %d) shard %d starts at %d, want %d (gap or overlap)", tc.tests, tc.shards, i, s.First, next)
			}
			size := s.Last - s.First
			if lo, hi := tc.tests/tc.wantShards, tc.tests/tc.wantShards+1; size < lo || size > hi {
				t.Fatalf("Plan(%d, %d) shard %d size %d outside near-equal [%d, %d]", tc.tests, tc.shards, i, size, lo, hi)
			}
			next = s.Last
		}
		if next != tc.tests {
			t.Fatalf("Plan(%d, %d) covers [0, %d), want [0, %d)", tc.tests, tc.shards, next, tc.tests)
		}
	}
}

// TestDriverJournalResume: a run broken off mid-stream resumes from its
// journal under a different shard count to the uninterrupted stream, and a
// campaign with another seed refuses the journal.
func TestDriverJournalResume(t *testing.T) {
	const tests = 50
	ref, _ := fakeCampaign(t, Settings{Tests: tests, Seed: 2}, -1)
	want := collect(t, ref.Stream(context.Background()))
	path := filepath.Join(t.TempDir(), "fake.journal")

	c, _ := fakeCampaign(t, Settings{Tests: tests, Seed: 2, Journal: path, Shards: 4}, -1)
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
	c2, _ := fakeCampaign(t, Settings{Tests: tests, Seed: 2, Journal: path, Shards: 3,
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
// the shard count.
func TestDriverEarlyStop(t *testing.T) {
	const tests = 400
	s := Settings{Tests: tests, Seed: 1, EarlyStop: true, Confidence: 0.95, Margin: 0.05}
	ref, _ := fakeCampaign(t, s, -1)
	want, err := ref.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if want.Tests < EarlyStopMinTests || want.Tests >= tests {
		t.Fatalf("early stop at %d: degenerate for this test", want.Tests)
	}
	for _, shards := range []int{2, 5} {
		c, _ := fakeCampaign(t, s, -1)
		sc, err := c.With(func(s *Settings) { s.Shards = shards })
		if err != nil {
			t.Fatal(err)
		}
		if got, err := sc.Run(context.Background()); err != nil || got != want {
			t.Errorf("shards=%d: %+v %v, want %+v", shards, got, err, want)
		}
	}
}

// TestDriverShardError: a failing fault ends a sharded run with its error
// after a clean prefix of the outcomes before it.
func TestDriverShardError(t *testing.T) {
	const failAt = 23
	c, _ := fakeCampaign(t, Settings{Tests: 60, Seed: 5, Shards: 4}, failAt)
	n := 0
	var last error
	for o, err := range c.Stream(context.Background()) {
		if err != nil {
			last = err
			break
		}
		if o.Index != n {
			t.Fatalf("outcome %d has index %d", n, o.Index)
		}
		n++
	}
	if last == nil || n > failAt {
		t.Fatalf("run ended after %d outcomes with %v, want the fault %d error", n, last, failAt)
	}
}

// TestDriverShardCancel: cancelling the context stops a sharded run with
// ctx.Err() after a clean prefix of the merged stream.
func TestDriverShardCancel(t *testing.T) {
	c, _ := fakeCampaign(t, Settings{Tests: 60, Seed: 6, Shards: 4}, -1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	n := 0
	var last error
	for o, err := range c.Stream(ctx) {
		if err != nil {
			last = err
			break
		}
		if o.Index != n {
			t.Fatalf("outcome %d has index %d: prefix not clean", n, o.Index)
		}
		if n++; n == 5 {
			cancel()
		}
	}
	if !errors.Is(last, context.Canceled) {
		t.Fatalf("cancelled stream ended with %v after %d outcomes, want context.Canceled", last, n)
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
	} {
		if _, err := New(s, p, x); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := New(Settings{Tests: 3}, nil, x); err == nil {
		t.Error("tests without a picker: accepted")
	}
	c, err := New(Settings{}, nil, x)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(context.Background()); err == nil {
		t.Error("replay-only Run succeeded")
	}
	if _, err := c.With(func(s *Settings) { s.Shards = -1 }); err == nil {
		t.Error("negative shard count accepted")
	}
}
