package fliptracker_test

import (
	"context"
	"fmt"
	"testing"

	"fliptracker"
	"fliptracker/internal/apps"
	"fliptracker/internal/inject"
	"fliptracker/internal/interp"
)

// digestResult renders a campaign Result for FNV comparison against the
// from-scratch oracle (Results must be FNV-identical, not merely rate-equal).
func digestResult(r fliptracker.CampaignResult) string {
	return fmt.Sprintf("tests=%d success=%d failed=%d crashed=%d notapplied=%d",
		r.Tests, r.Success, r.Failed, r.Crashed, r.NotApplied)
}

// TestStaticPruneSoundnessMatrix is the fires-rule acceptance test for the
// single-process engine, swept over all ten Table IV applications:
//
//   - Oracle: a whole-program campaign produces a Result FNV-identical to
//     the from-scratch oracle (inject.RunOne on every drawn fault).
//   - Soundness: every drawn fault whose step lies past the clean run's SID
//     log, or that interp.CanFire rejects at the logged instruction, must
//     have classified NotApplied in the oracle.
//   - Coverage: the rule rejects at least one drawn fault on at least three
//     apps, so the soundness check is exercised for real, not vacuously.
//   - Verdicts: the per-app rejected counts are pinned. The dispatch applies
//     a fault only where the rule admits it, so a rule that starts rejecting
//     a site class it used to admit stays consistent with every outcome;
//     only the counts show it.
func TestStaticPruneSoundnessMatrix(t *testing.T) {
	const (
		tests = 40
		seed  = 20181111
	)
	wantRejected := map[string]int{
		"cg": 7, "mg": 2, "lu": 1, "bt": 3, "is": 8,
		"dc": 4, "sp": 3, "ft": 4, "kmeans": 12, "lulesh": 9,
	}
	ctx := context.Background()
	appsWithRejects := 0
	for _, name := range apps.TableIVNames() {
		an, err := fliptracker.NewAnalyzer(name)
		if err != nil {
			t.Fatal(err)
		}
		m, err := an.App.NewMachine()
		if err != nil {
			t.Fatal(err)
		}
		m.Mode = interp.TraceOff
		m.RecordSIDs = true
		if _, err := m.Run(); err != nil {
			t.Fatalf("%s: clean SID log run: %v", name, err)
		}
		sids := m.SIDLog()
		c, err := an.NewCampaign(fliptracker.WholeProgram(),
			fliptracker.WithTests(tests), fliptracker.WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}

		// Reference: run every drawn fault from scratch, checking each fault
		// the fires rule rejects against its dynamic outcome.
		faults := c.Faults()
		var oracle fliptracker.CampaignResult
		rejected := 0
		for _, f := range faults {
			o, err := inject.RunOne(an.App.NewMachine, an.App.Verify, f)
			if err != nil {
				t.Fatal(err)
			}
			oracle.Count(o)
			if f.Step < uint64(len(sids)) && interp.CanFire(an.Prog, int(sids[f.Step]), f) {
				continue
			}
			rejected++
			if o != inject.NotApplied {
				t.Errorf("%s: the fires rule rejects %v but it classified %v", name, &f, o)
			}
		}
		if oracle.Tests != tests {
			t.Fatalf("%s: from-scratch reference ran %d tests, want %d", name, oracle.Tests, tests)
		}

		res, err := c.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if fnv64(digestResult(res)) != fnv64(digestResult(oracle)) {
			t.Errorf("%s: campaign Run %s != from-scratch reference %s",
				name, digestResult(res), digestResult(oracle))
		}

		t.Logf("%s: fires rule rejects %.1f%% (%d of %d)",
			name, 100*float64(rejected)/float64(len(faults)), rejected, len(faults))
		if rejected != wantRejected[name] {
			t.Errorf("%s: the fires rule rejects %d drawn faults, want %d", name, rejected, wantRejected[name])
		}
		if rejected > 0 {
			appsWithRejects++
		}
	}
	if appsWithRejects < 3 {
		t.Errorf("the fires rule rejects a drawn fault on only %d apps, want at least 3", appsWithRejects)
	}
}

// TestStaticPruneSoundnessMatrixMPI is the same acceptance contract for the
// MPI engine over all ten Table IV applications' SPMD variants: a plain
// world campaign, which MPIAnalyzer.NewCampaign always builds to skip the
// faults that cannot fire, must be Result-identical to the from-scratch
// oracle (MPIAnalyzer.AnalyzeWorld on every drawn fault).
func TestStaticPruneSoundnessMatrixMPI(t *testing.T) {
	const (
		ranks = 2
		tests = 6
		seed  = 20181111
	)
	ctx := context.Background()
	for _, name := range apps.TableIVNames() {
		ma, err := fliptracker.NewMPIAnalyzer(name, ranks)
		if err != nil {
			t.Fatal(err)
		}
		c, err := ma.NewCampaign(nil, fliptracker.WithTests(tests), fliptracker.WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}

		// Reference: replay every drawn fault's world from scratch.
		var oracle fliptracker.CampaignResult
		for _, f := range c.Faults() {
			wa, err := ma.AnalyzeWorld(f)
			if err != nil {
				t.Fatal(err)
			}
			oracle.Count(wa.Outcome)
		}
		if oracle.Tests != tests {
			t.Fatalf("%s: from-scratch reference ran %d worlds, want %d", name, oracle.Tests, tests)
		}

		pruned, err := c.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if fnv64(digestResult(pruned)) != fnv64(digestResult(oracle)) {
			t.Errorf("%s: pruned campaign Run %s != from-scratch reference %s",
				name, digestResult(pruned), digestResult(oracle))
		}
	}
}
