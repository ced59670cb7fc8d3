package core

import (
	"context"
	"testing"

	"fliptracker/internal/campaign"
)

func TestHybridCampaign(t *testing.T) {
	an := newCG(t)
	res, err := an.Campaign(context.Background(), Hybrid(), campaign.WithTests(80), campaign.WithSeed(21))
	if err != nil {
		t.Fatal(err)
	}
	if res.Tests != 80 {
		t.Fatalf("tests = %d", res.Tests)
	}
	if res.Success+res.Failed+res.Crashed+res.NotApplied != res.Tests {
		t.Fatalf("outcomes do not sum: %+v", res)
	}
	if sr := res.SuccessRate(); sr < 0 || sr > 1 {
		t.Fatalf("rate %v", sr)
	}
}
