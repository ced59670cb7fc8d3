package fliptracker_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"fliptracker"
	"fliptracker/internal/apps"
	"fliptracker/internal/inject"
	"fliptracker/internal/ir"
	"fliptracker/internal/irstatic"
)

// digestResult renders a campaign Result for FNV comparison against the
// from-scratch oracle (Results must be FNV-identical, not merely rate-equal).
func digestResult(r fliptracker.CampaignResult) string {
	return fmt.Sprintf("tests=%d success=%d failed=%d crashed=%d notapplied=%d",
		r.Tests, r.Success, r.Failed, r.Crashed, r.NotApplied)
}

// TestStaticPruneSoundnessMatrix is the static-analysis acceptance test for
// the single-process engine, swept over all ten Table IV applications:
//
//   - Oracle: a whole-program campaign produces a Result FNV-identical to
//     the from-scratch oracle (inject.RunOne on every drawn fault).
//   - Soundness: every fault the oracle ran is cross-checked against its
//     static class — no statically-benign site may manifest as
//     SDC/crash/NotApplied dynamically, and no statically never-fires site
//     may manifest at all (CrossCheckStaticOutcome).
//   - Coverage: the measured prune rate is > 0 on at least three apps, so
//     the soundness check is exercised for real, not vacuously.
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
		c, err := an.NewCampaign(fliptracker.WholeProgram(),
			fliptracker.WithTests(tests), fliptracker.WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}

		// Reference: run every drawn fault from scratch, cross-checking each
		// dynamic outcome against its static class.
		faults := c.Faults()
		var oracle fliptracker.CampaignResult
		for _, f := range faults {
			o, err := inject.RunOne(an.App.NewMachine, an.App.Verify, f)
			if err != nil {
				t.Fatal(err)
			}
			oracle.Count(o)
			if err := fliptracker.CrossCheckStaticOutcome(pruner, f, o); err != nil {
				t.Errorf("%s: %v", name, err)
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

// staticClassDigest renders every static verdict of one program: the
// FaultDst class of each instruction, the FaultReg class of each of its
// frame's registers, each function's return danger, and the per-function
// SiteStats.
func staticClassDigest(t *testing.T, p *ir.Program) string {
	t.Helper()
	an, err := irstatic.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, f := range p.Funcs {
		fmt.Fprintf(&sb, "%s retdanger=%v\n", f.Name, an.RetDanger(f.Index))
		for off := range f.Code {
			sid := f.Base + off
			fmt.Fprintf(&sb, "%d %s", sid, an.ClassifyDst(sid))
			for r := 0; r < f.NumRegs; r++ {
				sb.WriteByte("LBN"[an.ClassifyReg(sid, ir.Reg(r))])
			}
			sb.WriteByte('\n')
		}
	}
	for _, s := range an.Stats() {
		fmt.Fprintf(&sb, "%s live=%d benign=%d never=%d\n", s.Func, s.Live, s.Benign, s.NeverFires)
	}
	return sb.String()
}

// TestStaticClassificationGolden pins the static verdicts themselves. The
// soundness matrices prove the verdicts sound, which a change that moves
// sites between Live and Benign could still pass; this digest of every
// site's class over every app's single-process and MPI program cannot.
func TestStaticClassificationGolden(t *testing.T) {
	want := map[string]uint64{
		"cg/single":     0x4d1fd75d492a6a06,
		"cg/mpi":        0x77653a95a4fbe07d,
		"mg/single":     0xcd76263f968157e3,
		"mg/mpi":        0xa6b470462441ccbf,
		"lu/single":     0xff45829641a0b204,
		"lu/mpi":        0x74ab972e11a88b98,
		"bt/single":     0x3f33b82e2c8c4060,
		"bt/mpi":        0x7d5ac54d9d1fe49,
		"is/single":     0x59c389ac655f1579,
		"is/mpi":        0xde3a0f424e4b26f4,
		"dc/single":     0xf72b39c752ad7bef,
		"dc/mpi":        0xc765dd85128a41e0,
		"sp/single":     0xdffe29c1be8d1ecd,
		"sp/mpi":        0x3009d46174410337,
		"ft/single":     0xc44f47e1b7778eb3,
		"ft/mpi":        0xca86a7b4a9b6fd78,
		"kmeans/single": 0xe337114d908b3229,
		"kmeans/mpi":    0xfc3180ba87704921,
		"lulesh/single": 0x3e7b32dbd9ebe9af,
		"lulesh/mpi":    0x7e779522ab4dfaed,
	}
	for _, name := range apps.TableIVNames() {
		app, ok := apps.Get(name)
		if !ok {
			t.Fatalf("unknown app %s", name)
		}
		for _, variant := range []string{"single", "mpi"} {
			build := app.Program
			if variant == "mpi" {
				build = app.MPIProgram
			}
			p, err := build()
			if err != nil {
				t.Fatal(err)
			}
			key := name + "/" + variant
			got := fnv64(staticClassDigest(t, p))
			if got != want[key] {
				t.Errorf("%s: static classification digest %#x, want %#x", key, got, want[key])
			}
		}
	}
}
