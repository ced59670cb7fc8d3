package core

import (
	"testing"

	"fliptracker/internal/campaign"
	"fliptracker/internal/interp"
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
