package core

import (
	"context"
	"reflect"
	"testing"

	"fliptracker/internal/apps"
	"fliptracker/internal/campaign"
	"fliptracker/internal/inject"
	"fliptracker/internal/interp"
	"fliptracker/internal/journal"
	"fliptracker/internal/mpi"
)

// TestMPIAnalyzerFaultRankValidation: an out-of-range FaultRank must surface
// as an error from every entry point that indexes by it, never a panic.
func TestMPIAnalyzerFaultRankValidation(t *testing.T) {
	ma, err := NewMPIAnalyzer("is", 2)
	if err != nil {
		t.Fatal(err)
	}
	f := interp.Fault{Step: 10, Bit: 3, Kind: interp.FaultDst}
	for _, bad := range []int{-1, 2, 99} {
		ma.FaultRank = bad
		if got := ma.InjectedSteps(); got != 0 {
			t.Errorf("FaultRank %d: InjectedSteps = %d, want 0", bad, got)
		}
		if _, err := ma.NewCampaign(nil, campaign.WithTests(2)); err == nil {
			t.Errorf("FaultRank %d: NewCampaign should fail", bad)
		}
		if _, err := ma.NewAnalyzedCampaign(nil, campaign.WithTests(2)); err == nil {
			t.Errorf("FaultRank %d: NewAnalyzedCampaign should fail", bad)
		}
		if _, err := ma.AnalyzeWorld(f); err == nil {
			t.Errorf("FaultRank %d: AnalyzeWorld should fail", bad)
		}
	}
	ma.FaultRank = 1
	if ma.InjectedSteps() == 0 {
		t.Error("valid FaultRank: InjectedSteps = 0")
	}
	if _, err := ma.NewCampaign(nil, campaign.WithTests(2)); err != nil {
		t.Errorf("valid FaultRank: NewCampaign failed: %v", err)
	}
}

// TestMPIPrunedRecords: every record of a campaign built through
// MPIAnalyzer.NewCampaign, which skips the faults the fires rule shows
// cannot fire, equals the record of the same campaign that runs every
// world, every field included (propagation class and ranks too), over the
// ten Table IV apps at three world shapes, and their streams do contain
// skipped faults. A fault list of ft's skippable faults then shows that a
// verifier that rejects the clean world turns skipping off (a skipped
// outcome assumes an accepted clean world), and so does analysis (every
// analyzed world must run).
func TestMPIPrunedRecords(t *testing.T) {
	const seed = 20181111
	records := func(c *mpi.Campaign, err error) []journal.Record {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		var out []journal.Record
		for r, err := range c.Records(context.Background()) {
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, r)
		}
		return out
	}
	firesOn := func(ma *MPIAnalyzer) func(interp.Fault) bool {
		t.Helper()
		sids, err := ma.rankSIDLog(ma.FaultRank)
		if err != nil {
			t.Fatal(err)
		}
		return func(f interp.Fault) bool {
			return f.Step < uint64(len(sids)) && interp.CanFire(ma.Prog, int(sids[f.Step]), f)
		}
	}
	appsPruned := 0
	for _, name := range apps.TableIVNames() {
		pruned := 0
		for _, shape := range []struct{ ranks, faultRank int }{{2, 0}, {3, 1}, {4, 3}} {
			ma, err := NewMPIAnalyzer(name, shape.ranks)
			if err != nil {
				t.Fatal(err)
			}
			ma.FaultRank = shape.faultRank
			fires := firesOn(ma)
			opts := []mpi.Option{campaign.WithTests(12), campaign.WithSeed(seed)}
			got := records(ma.NewCampaign(nil, opts...))
			if want := records(ma.newCampaign(nil, opts...)); !reflect.DeepEqual(got, want) {
				t.Errorf("%s ranks=%d faultrank=%d: pruned records differ\npruned:   %+v\nunpruned: %+v",
					name, shape.ranks, shape.faultRank, got, want)
			}
			for _, r := range got {
				if !fires(r.Fault) {
					pruned++
				}
			}
		}
		if pruned > 0 {
			appsPruned++
		}
	}
	if appsPruned < 3 {
		t.Errorf("pruned faults on %d apps, want at least 3", appsPruned)
	}

	ma, err := NewMPIAnalyzer("ft", 3)
	if err != nil {
		t.Fatal(err)
	}
	ma.FaultRank = 1
	fires := firesOn(ma)
	draw, err := ma.newCampaign(nil, campaign.WithTests(200), campaign.WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	var list inject.FaultList
	live, skipped := 0, 0
	for _, f := range draw.Faults() {
		if fires(f) {
			if live == 4 {
				continue
			}
			live++
		} else {
			skipped++
		}
		list.Faults = append(list.Faults, f)
	}
	if skipped == 0 {
		t.Fatal("ft fault list has no fault that cannot fire")
	}
	tests := campaign.WithTests(len(list.Faults))
	for _, tc := range []struct {
		name string
		opts []mpi.Option
	}{
		{"default verifier", []mpi.Option{tests}},
		{"verifier rejecting the clean world", []mpi.Option{tests, mpi.WithVerify(func(*mpi.Result) bool { return false })}},
	} {
		got := records(ma.NewCampaign(list, tc.opts...))
		if want := records(ma.newCampaign(list, tc.opts...)); !reflect.DeepEqual(got, want) {
			t.Errorf("ft fault list, %s: pruned records differ\npruned:   %+v\nunpruned: %+v", tc.name, got, want)
		}
	}

	c, err := ma.NewCampaign(list, tests, mpi.WithWorldAnalysis(
		func(i int, _ interp.Fault, _ *mpi.Result, _ inject.Outcome, _ mpi.Propagation) (any, error) {
			return i, nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	for wo, err := range c.Stream(context.Background()) {
		if err != nil {
			t.Fatal(err)
		}
		if wo.Analysis == nil {
			t.Fatalf("analyzed world %d (%v, fires %v) ran no analysis", wo.Index, &wo.Fault, fires(wo.Fault))
		}
	}
}
