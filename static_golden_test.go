package fliptracker_test

import (
	"context"
	"fmt"
	"testing"

	"fliptracker"
	"fliptracker/internal/apps"
	"fliptracker/internal/inject"
)

// digestResult renders a campaign Result for FNV comparison (the acceptance
// form of the prune-invariance contract: pruned and unpruned Results must be
// FNV-identical, not merely rate-equal).
func digestResult(r fliptracker.CampaignResult) string {
	return fmt.Sprintf("tests=%d success=%d failed=%d crashed=%d notapplied=%d",
		r.Tests, r.Success, r.Failed, r.Crashed, r.NotApplied)
}

// TestStaticPruneSoundnessMatrix is the static-analysis acceptance test for
// the single-process engine, swept over all ten Table IV applications:
//
//   - Invariance: a whole-program campaign with WithStaticPrune produces a
//     Result FNV-identical to the unpruned campaign of the same seed, and
//     both equal the from-scratch oracle (inject.RunOne on every drawn
//     fault).
//   - Soundness: every fault the oracle ran is cross-checked against its static class — no statically-benign site may
//     manifest as SDC/crash/NotApplied dynamically, and no statically
//     never-fires site may manifest at all (CrossCheckStaticOutcome).
//   - Coverage: the measured prune rate is > 0 on at least three apps, so
//     the pruning is exercised for real, not vacuously invariant.
func TestStaticPruneSoundnessMatrix(t *testing.T) {
	const (
		tests = 40
		seed  = 20181111
	)
	ctx := context.Background()
	appsWithPruning := 0
	for _, name := range apps.TableIVNames() {
		an, err := fliptracker.NewAnalyzer(name)
		if err != nil {
			t.Fatal(err)
		}
		pruner, err := an.StaticPruner()
		if err != nil {
			t.Fatalf("%s: static pruner: %v", name, err)
		}
		base := []fliptracker.CampaignOption{
			fliptracker.WithTests(tests),
			fliptracker.WithSeed(seed),
		}
		pop := fliptracker.WholeProgram()

		// Reference: run every drawn fault from scratch, cross-checking each
		// dynamic outcome against its static class.
		c, err := an.NewCampaign(pop, base...)
		if err != nil {
			t.Fatal(err)
		}
		faults := c.Faults()
		var unpruned fliptracker.CampaignResult
		for _, f := range faults {
			o, err := inject.RunOne(an.App.NewMachine, an.App.Verify, f)
			if err != nil {
				t.Fatal(err)
			}
			unpruned.Count(o)
			if err := fliptracker.CrossCheckStaticOutcome(pruner, f, o); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
		if unpruned.Tests != tests {
			t.Fatalf("%s: from-scratch reference ran %d tests, want %d", name, unpruned.Tests, tests)
		}

		// Invariance, pruned and unpruned.
		plain, err := c.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		pruned, err := an.Campaign(ctx, pop, append(base, fliptracker.WithStaticPrune(pruner))...)
		if err != nil {
			t.Fatal(err)
		}
		if fnv64(digestResult(plain)) != fnv64(digestResult(unpruned)) {
			t.Errorf("%s: unpruned Run %s != from-scratch reference %s",
				name, digestResult(plain), digestResult(unpruned))
		}
		if fnv64(digestResult(pruned)) != fnv64(digestResult(plain)) {
			t.Errorf("%s: pruned Result diverges\npruned:   %s\nunpruned: %s",
				name, digestResult(pruned), digestResult(plain))
		}

		stats := pruner.StatsFor(faults)
		t.Logf("%s: prune rate %.1f%% (%d benign + %d never-fires of %d)",
			name, 100*stats.Rate(), stats.Benign, stats.NeverFires, stats.Total)
		if stats.Rate() > 0 {
			appsWithPruning++
		}
	}
	if appsWithPruning < 3 {
		t.Errorf("prune rate > 0 on only %d apps, want at least 3", appsWithPruning)
	}
}

// TestStaticPruneSoundnessMatrixMPI is the same acceptance contract for the
// MPI engine over all ten Table IV applications' SPMD variants: pruned world
// campaigns (MPIWithStaticPrune) must be Result-identical to unpruned ones
// and to the from-scratch oracle (MPIAnalyzer.AnalyzeWorld on every drawn
// fault), and every world the oracle replayed must satisfy the static
// soundness contract.
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
		pruner, err := ma.StaticPruner()
		if err != nil {
			t.Fatalf("%s: static pruner: %v", name, err)
		}
		base := []fliptracker.MPIOption{
			fliptracker.MPIWithTests(tests),
			fliptracker.MPIWithSeed(seed),
		}

		// Reference: replay every drawn fault's world from scratch, with
		// the per-world soundness cross-check.
		c, err := ma.NewCampaign(nil, base...)
		if err != nil {
			t.Fatal(err)
		}
		var unpruned fliptracker.CampaignResult
		for _, f := range c.Faults() {
			wa, err := ma.AnalyzeWorld(f)
			if err != nil {
				t.Fatal(err)
			}
			unpruned.Count(wa.Outcome)
			if err := fliptracker.CrossCheckStaticOutcome(pruner, f, wa.Outcome); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
		if unpruned.Tests != tests {
			t.Fatalf("%s: from-scratch reference ran %d worlds, want %d", name, unpruned.Tests, tests)
		}

		plain, err := c.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		pc, err := ma.NewCampaign(nil, append(base, fliptracker.MPIWithStaticPrune(pruner))...)
		if err != nil {
			t.Fatal(err)
		}
		pruned, err := pc.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if fnv64(digestResult(plain)) != fnv64(digestResult(unpruned)) {
			t.Errorf("%s: unpruned Run %s != from-scratch reference %s",
				name, digestResult(plain), digestResult(unpruned))
		}
		if fnv64(digestResult(pruned)) != fnv64(digestResult(plain)) {
			t.Errorf("%s: pruned Result diverges\npruned:   %s\nunpruned: %s",
				name, digestResult(pruned), digestResult(plain))
		}
	}
}
