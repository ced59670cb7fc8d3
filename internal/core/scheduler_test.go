package core

import (
	"context"
	"testing"

	"fliptracker/internal/campaign"
	"fliptracker/internal/inject"
)

// TestCampaignSchedulerEquivalence pins the wiring guarantee: for a fixed
// seed, every Analyzer campaign returns the same Result as the from-scratch
// oracle — inject.RunOne on each of the campaign's drawn faults — and that
// Result is exactly what the v1 API (RegionCampaign / WholeProgramCampaign /
// HybridCampaign) produced before the v2 redesign (golden values captured
// from the pre-redesign implementation).
func TestCampaignSchedulerEquivalence(t *testing.T) {
	pops := []struct {
		name string
		pop  Population
		want inject.Result
	}{
		{"whole-program", WholeProgram(), inject.Result{Tests: 40, Success: 15, Failed: 9, Crashed: 11, NotApplied: 5}},
		{"region-internal", RegionInternal("cg_b", 0), inject.Result{Tests: 40, Success: 9, Failed: 6, Crashed: 16, NotApplied: 9}},
		{"region-inputs", RegionInputs("cg_b", 0), inject.Result{Tests: 40, Success: 36, Failed: 4}},
		{"hybrid", Hybrid(), inject.Result{Tests: 40, Success: 20, Failed: 11, Crashed: 4, NotApplied: 5}},
	}
	an := newCG(t)
	for _, p := range pops {
		c, err := an.NewCampaign(p.pop, campaign.WithTests(40), campaign.WithSeed(17))
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		ck, err := c.Run(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		var direct inject.Result
		for _, f := range c.Faults() {
			o, err := inject.RunOne(an.App.NewMachine, an.App.Verify, f)
			if err != nil {
				t.Fatalf("%s: %v", p.name, err)
			}
			direct.Count(o)
		}
		if ck != direct {
			t.Errorf("%s campaign: checkpointed %+v vs from-scratch %+v", p.name, ck, direct)
		}
		if ck != p.want {
			t.Errorf("%s campaign: %+v, want v1 golden %+v", p.name, ck, p.want)
		}
	}
}
