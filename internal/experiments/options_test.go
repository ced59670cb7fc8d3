package experiments

import "testing"

func TestCampaignTestsSizing(t *testing.T) {
	quick := Options{Quick: true}
	full := Options{Quick: false}
	// Large population: quick caps at 120, full uses the statistical rule.
	if n := quick.campaignTests(1<<40, 0.95, 0.03); n != 120 {
		t.Errorf("quick sizing = %d, want 120", n)
	}
	if n := full.campaignTests(1<<40, 0.95, 0.03); n < 1000 || n > 1100 {
		t.Errorf("full 95/3 sizing = %d, want ~1067", n)
	}
	if n := full.campaignTests(1<<40, 0.99, 0.01); n < 16000 || n > 17000 {
		t.Errorf("full 99/1 sizing = %d, want ~16.6k", n)
	}
	// Tiny population: both bounded by the population itself.
	if n := quick.campaignTests(40, 0.95, 0.03); n > 40 {
		t.Errorf("tiny population sizing = %d", n)
	}
}

func TestDefaultOptions(t *testing.T) {
	o := DefaultOptions()
	if !o.Quick || o.Ranks <= 0 || o.Runs <= 0 {
		t.Errorf("bad defaults: %+v", o)
	}
}

func TestCampaignOptionsWiring(t *testing.T) {
	o := Options{}
	if n := len(o.campaignOptions(10, 1, 0.95, 0.03)); n != 2 {
		t.Errorf("campaign options = %d, want tests+seed", n)
	}
	o.EarlyStop = true
	if n := len(o.campaignOptions(10, 1, 0.95, 0.03)); n != 3 {
		t.Errorf("campaign options with early stop = %d, want 3", n)
	}
}
