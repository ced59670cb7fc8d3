// Package experiments regenerates every table and figure of the paper's
// evaluation (§V-§VII). Each harness returns a typed result with a Format
// method that prints the same rows/series the paper reports; cmd/ftbench
// and the root bench_test.go drive them. Absolute numbers differ from the
// paper (our substrate is an interpreter, not LLNL hardware) — the
// reproduced artifact is the shape: which regions are resilient, which
// patterns appear where, how the model predicts.
package experiments

import (
	"fmt"

	"fliptracker/internal/campaign"
	"fliptracker/internal/stats"
)

// Options configure the harnesses.
type Options struct {
	// Quick shrinks injection campaigns for fast regeneration; full mode
	// sizes campaigns with the paper's statistical rule (95%/3% for the
	// §V studies, 99%/1% for §VII).
	Quick bool
	// Seed drives every campaign's fault stream.
	Seed int64
	// Ranks is the MPI world size for the Figure 4 overhead study (the
	// paper uses 64 ranks on 8 nodes).
	Ranks int
	// Runs is the number of timing repetitions for Table III.
	Runs int
	// EarlyStop enables sequential early stopping for the sized campaigns:
	// each campaign ends as soon as its success-rate confidence interval
	// is within the sizing rule's margin instead of always running
	// Leveugle et al.'s worst-case sample size. ftbench enables this by
	// default in -full mode; the reported rates stay within the configured
	// margin of the fixed-size campaign's.
	EarlyStop bool
}

// DefaultOptions returns quick-mode defaults.
func DefaultOptions() Options {
	return Options{Quick: true, Seed: 20181111, Ranks: 8, Runs: 5}
}

// campaignTests picks the number of injections per target.
func (o Options) campaignTests(population uint64, confidence, margin float64) int {
	n := stats.SampleSize(population, confidence, margin)
	if !o.Quick {
		return n
	}
	const quickCap = 120
	if n > quickCap {
		return quickCap
	}
	return n
}

// campaignOptions assembles the v2 campaign options for a statistically
// sized campaign: the test count (a cap under early stopping), the seed,
// and — when EarlyStop is set — the sequential
// stopping rule at the same confidence/margin the sizing used.
func (o Options) campaignOptions(tests int, seed int64, confidence, margin float64) []campaign.Option {
	copts := []campaign.Option{campaign.WithTests(tests), campaign.WithSeed(seed)}
	if o.EarlyStop {
		copts = append(copts, campaign.WithEarlyStop(confidence, margin))
	}
	return copts
}

// harness adapts a typed harness to the formatted report Run returns.
func harness[R interface{ Format() string }](run func(Options) (R, error)) func(Options) (string, error) {
	return func(opts Options) (string, error) {
		r, err := run(opts)
		if err != nil {
			return "", err
		}
		return r.Format(), nil
	}
}

// table lists every experiment by id, in paper order.
var table = []struct {
	id  string
	run func(Options) (string, error)
}{
	{"fig4", harness(TracingOverhead)},
	{"fig5", harness(PerRegionSuccessRates)},
	{"fig6", harness(PerIterationSuccessRates)},
	{"fig7", harness(ACLSeries)},
	{"tab1", harness(PatternInventory)},
	{"tab2", harness(RepeatedAdditionsMagnitude)},
	{"tab3", harness(ResilienceAwareCG)},
	{"tab4", harness(Prediction)},
}

// IDs of all experiments, in paper order.
func IDs() []string {
	ids := make([]string, len(table))
	for i, e := range table {
		ids[i] = e.id
	}
	return ids
}

// Run executes one experiment by id and returns its formatted report.
func Run(id string, opts Options) (string, error) {
	for _, e := range table {
		if e.id == id {
			return e.run(opts)
		}
	}
	return "", fmt.Errorf("experiments: unknown id %q (have %v)", id, IDs())
}
