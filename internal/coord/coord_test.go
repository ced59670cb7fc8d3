package coord_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync/atomic"
	"testing"

	"fliptracker/internal/campaign"
	"fliptracker/internal/coord"
	"fliptracker/internal/inject"
	"fliptracker/internal/interp"
	"fliptracker/internal/ir"
	"fliptracker/internal/journal"
	"fliptracker/internal/trace"
)

// buildProg builds the coord test workload: a small accumulation whose
// verification tolerates low-mantissa noise, so campaigns over it reach all
// §II-A outcomes.
func buildProg(t testing.TB) *ir.Program {
	t.Helper()
	p := ir.NewProgram("coordtol")
	a := p.AllocGlobal("a", 8, ir.F64)
	b := p.NewFunc("main", 0)
	for i := int64(0); i < 8; i++ {
		b.StoreGI(a, i, b.ConstF(1.25))
	}
	acc := b.ConstF(0)
	b.ForI(0, 8, func(i ir.Reg) {
		b.BinTo(ir.OpFAdd, acc, acc, b.LoadG(a, i))
	})
	b.Emit(ir.F64, acc)
	b.RetVoid()
	b.Done()
	if err := p.Seal(); err != nil {
		t.Fatal(err)
	}
	return p
}

func testCampaign(t testing.TB, tests int, opts ...inject.Option) *inject.Campaign {
	t.Helper()
	p := buildProg(t)
	m, err := interp.NewMachine(p)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := m.Run()
	if err != nil || tr.Status != trace.RunOK {
		t.Fatalf("clean run: %v %v", tr.Status, err)
	}
	mk := func() (*interp.Machine, error) { return interp.NewMachine(p) }
	verify := func(tr *trace.Trace) bool {
		return len(tr.Output) == 1 && tr.Output[0].Float() > 9 && tr.Output[0].Float() < 11
	}
	c, err := inject.NewCampaign(mk, verify, inject.UniformDst{TotalSteps: tr.Steps},
		append([]inject.Option{campaign.WithTests(tests), campaign.WithSeed(20181111)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func digest(fo inject.FaultOutcome) string {
	return fmt.Sprintf("#%d %s -> %s", fo.Index, fo.Fault.String(), fo.Outcome)
}

func collectRef(t *testing.T, c *inject.Campaign) []string {
	t.Helper()
	var out []string
	for fo, err := range c.Stream(context.Background()) {
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, digest(fo))
	}
	return out
}

// TestPlan pins the shard planner: exact contiguous partition, near-equal
// sizes, clamping, and the empty cases.
func TestPlan(t *testing.T) {
	if s := coord.Plan(0, 4); s != nil {
		t.Errorf("Plan(0, 4) = %v, want nil", s)
	}
	if s := coord.Plan(-3, 4); s != nil {
		t.Errorf("Plan(-3, 4) = %v, want nil", s)
	}
	for _, tc := range []struct{ tests, shards, wantShards int }{
		{10, 1, 1}, {10, 3, 3}, {10, 10, 10}, {3, 10, 3}, {7, 0, 1}, {7, -2, 1}, {1, 1, 1},
	} {
		got := coord.Plan(tc.tests, tc.shards)
		if len(got) != tc.wantShards {
			t.Fatalf("Plan(%d, %d) has %d shards, want %d", tc.tests, tc.shards, len(got), tc.wantShards)
		}
		next := 0
		for i, s := range got {
			if s.First != next {
				t.Fatalf("Plan(%d, %d) shard %d starts at %d, want %d (gap or overlap)", tc.tests, tc.shards, i, s.First, next)
			}
			size := s.Last - s.First
			if size < 1 {
				t.Fatalf("Plan(%d, %d) shard %d is empty", tc.tests, tc.shards, i)
			}
			if min, max := tc.tests/tc.wantShards, tc.tests/tc.wantShards+1; size < min || size > max {
				t.Fatalf("Plan(%d, %d) shard %d size %d outside near-equal [%d, %d]", tc.tests, tc.shards, i, size, min, max)
			}
			next = s.Last
		}
		if next != tc.tests {
			t.Fatalf("Plan(%d, %d) covers [0, %d), want [0, %d)", tc.tests, tc.shards, next, tc.tests)
		}
	}
}

// TestCoordinatorMatchesStream: the merged sharded stream is identical to
// the engine's own Stream for shard counts 1, 2, 4 and 7 (uneven), and Run
// aggregates to the same Result.
func TestCoordinatorMatchesStream(t *testing.T) {
	const tests = 60
	ref := collectRef(t, testCampaign(t, tests))
	if len(ref) != tests {
		t.Fatalf("reference stream yielded %d outcomes, want %d", len(ref), tests)
	}
	wantRes, err := testCampaign(t, tests).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2, 4, 7} {
		h, err := coord.Inject(testCampaign(t, tests, campaign.WithParallelism(2)))
		if err != nil {
			t.Fatal(err)
		}
		co, err := coord.New(h, coord.WithShards(shards))
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for fo, err := range co.Stream(context.Background()) {
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, digest(fo))
		}
		if len(got) != len(ref) {
			t.Fatalf("shards=%d: %d outcomes, want %d", shards, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Errorf("shards=%d outcome %d:\nsharded: %s\nengine:  %s", shards, i, got[i], ref[i])
			}
		}
		gotRes, err := co.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if gotRes != wantRes {
			t.Errorf("shards=%d: Run %+v, engine %+v", shards, gotRes, wantRes)
		}
	}
}

// TestCoordinatorEarlyStop: the stopping rule applied to the merged stream
// fires at exactly the index the engine's own early-stopped run fires at,
// whatever the shard count.
func TestCoordinatorEarlyStop(t *testing.T) {
	const cap = 120
	opts := []inject.Option{campaign.WithEarlyStop(0.95, 0.12)}
	want, err := testCampaign(t, cap, opts...).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if want.Tests <= inject.EarlyStopMinTests || want.Tests >= cap {
		t.Fatalf("early stop fires at %d — degenerate for this test", want.Tests)
	}
	for _, shards := range []int{2, 5} {
		h, err := coord.Inject(testCampaign(t, cap, opts...))
		if err != nil {
			t.Fatal(err)
		}
		co, err := coord.New(h, coord.WithShards(shards))
		if err != nil {
			t.Fatal(err)
		}
		got, err := co.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("shards=%d: %+v, engine early-stopped %+v", shards, got, want)
		}
	}
}

// countingPicker is a whole-program population that counts its draws.
type countingPicker struct {
	inject.UniformDst
	draws *atomic.Int64
}

func (p countingPicker) Pick(r *rand.Rand) interp.Fault {
	p.draws.Add(1)
	return p.UniformDst.Pick(r)
}

// TestFaultStreamDrawnOnce: the fault stream is drawn exactly once per
// campaign — at construction — whatever the shard count, and Faults hands
// out a copy the caller cannot use to alter the campaign's stream.
func TestFaultStreamDrawnOnce(t *testing.T) {
	const tests = 40
	p := buildProg(t)
	m, err := interp.NewMachine(p)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	mk := func() (*interp.Machine, error) { return interp.NewMachine(p) }
	verify := func(tr *trace.Trace) bool { return len(tr.Output) == 1 }
	for _, shards := range []int{1, 2, 4} {
		var draws atomic.Int64
		picker := countingPicker{UniformDst: inject.UniformDst{TotalSteps: clean.Steps}, draws: &draws}
		c, err := inject.NewCampaign(mk, verify, picker, campaign.WithTests(tests), campaign.WithSeed(3))
		if err != nil {
			t.Fatal(err)
		}
		h, err := coord.Inject(c)
		if err != nil {
			t.Fatal(err)
		}
		co, err := coord.New(h, coord.WithShards(shards))
		if err != nil {
			t.Fatal(err)
		}
		res, err := co.Run(context.Background())
		if err != nil || res.Tests != tests {
			t.Fatalf("shards=%d: %+v %v", shards, res, err)
		}
		if n := draws.Load(); n != tests {
			t.Errorf("shards=%d: construction + run drew %d faults, want %d", shards, n, tests)
		}

		faults := c.Faults()
		faults[0].Step++
		if c.Faults()[0] == faults[0] {
			t.Errorf("shards=%d: mutating Faults() changed the campaign's stream", shards)
		}
	}
}

// TestRejectsJournaledCampaign: a campaign carrying its own journal cannot
// be sharded — its windows must not journal independently.
func TestRejectsJournaledCampaign(t *testing.T) {
	path := filepath.Join(t.TempDir(), "own.journal")
	if _, err := coord.Inject(testCampaign(t, 50, campaign.WithJournal(path))); err == nil {
		t.Fatal("coord.Inject accepted a journaled campaign")
	}
}

// TestCoordinatorJournalResume: a killed sharded campaign resumes from its
// journal — replaying the committed prefix and sharding only the remainder
// — and the spliced stream is identical to an uninterrupted run. The
// journal is also readable by the plain journal machinery (same identity).
func TestCoordinatorJournalResume(t *testing.T) {
	const tests = 40
	ref := collectRef(t, testCampaign(t, tests))
	path := filepath.Join(t.TempDir(), "coord.journal")

	// First run: break the consumer after 17 outcomes ("kill").
	h, err := coord.Inject(testCampaign(t, tests))
	if err != nil {
		t.Fatal(err)
	}
	co, err := coord.New(h, coord.WithShards(4), coord.WithJournal(path))
	if err != nil {
		t.Fatal(err)
	}
	var before []string
	for fo, err := range co.Stream(context.Background()) {
		if err != nil {
			t.Fatal(err)
		}
		before = append(before, digest(fo))
		if len(before) == 17 {
			break
		}
	}

	// The journal holds a committed prefix of at least the emitted outcomes
	// under the campaign's own header (Open validates it).
	j, recs, err := journal.Open(path, h.Header())
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if len(recs) < 17 {
		t.Fatalf("journal holds %d records, want >= 17", len(recs))
	}

	// Second run: resume with a different shard count; the full delivered
	// stream (replayed prefix + fresh remainder) matches the reference.
	h2, err := coord.Inject(testCampaign(t, tests))
	if err != nil {
		t.Fatal(err)
	}
	co2, err := coord.New(h2, coord.WithShards(3), coord.WithJournal(path))
	if err != nil {
		t.Fatal(err)
	}
	var after []string
	for fo, err := range co2.Stream(context.Background()) {
		if err != nil {
			t.Fatal(err)
		}
		after = append(after, digest(fo))
	}
	if len(after) != tests {
		t.Fatalf("resumed stream yielded %d outcomes, want %d", len(after), tests)
	}
	for i := range ref {
		if after[i] != ref[i] {
			t.Errorf("resumed outcome %d: %s, want %s", i, after[i], ref[i])
		}
	}

	// A campaign with a different seed refuses the journal.
	h3, err := coord.Inject(testCampaign(t, tests, campaign.WithSeed(5)))
	if err != nil {
		t.Fatal(err)
	}
	co3, err := coord.New(h3, coord.WithJournal(path))
	if err != nil {
		t.Fatal(err)
	}
	res, err := co3.Run(context.Background())
	if !errors.Is(err, journal.ErrMismatch) {
		t.Fatalf("mismatched resume: res %+v err %v, want ErrMismatch", res, err)
	}
}

// TestRecords: the journal-representation stream carries the same indexed
// outcomes as Stream, and a Runner interface value drives it.
func TestRecords(t *testing.T) {
	const tests = 30
	ref := collectRef(t, testCampaign(t, tests))
	h, err := coord.Inject(testCampaign(t, tests))
	if err != nil {
		t.Fatal(err)
	}
	co, err := coord.New(h, coord.WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	var r coord.Runner = co
	if r.Tests() != tests {
		t.Fatalf("Runner.Tests() = %d, want %d", r.Tests(), tests)
	}
	var got []string
	for rec, err := range r.Records(context.Background()) {
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, digest(inject.FaultOutcome{Index: int(rec.Index), Fault: rec.Fault, Outcome: inject.Outcome(rec.Outcome)}))
	}
	if len(got) != len(ref) {
		t.Fatalf("records stream yielded %d, want %d", len(got), len(ref))
	}
	for i := range ref {
		if got[i] != ref[i] {
			t.Errorf("record %d: %s, want %s", i, got[i], ref[i])
		}
	}
}

// TestCoordinatorCancel: cancelling the context stops the run with
// ctx.Err() and a clean emitted prefix.
func TestCoordinatorCancel(t *testing.T) {
	h, err := coord.Inject(testCampaign(t, 60))
	if err != nil {
		t.Fatal(err)
	}
	co, err := coord.New(h, coord.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	var last error
	for fo, err := range co.Stream(ctx) {
		if err != nil {
			last = err
			break
		}
		if fo.Index != n {
			t.Fatalf("outcome %d has index %d: prefix not clean", n, fo.Index)
		}
		n++
		if n == 5 {
			cancel()
		}
	}
	cancel()
	if !errors.Is(last, context.Canceled) {
		t.Fatalf("cancelled stream ended with %v, want context.Canceled", last)
	}
}
