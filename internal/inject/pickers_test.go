package inject

import (
	"math/rand"
	"testing"

	"fliptracker/internal/campaign"
	"fliptracker/internal/interp"
)

func TestUniformMemPicksInBounds(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	u := UniformMem{TotalSteps: 1000, FirstAddr: 10, LastAddr: 20}
	for i := 0; i < 200; i++ {
		f := u.Pick(r)
		if f.Kind != interp.FaultMem {
			t.Fatalf("kind %v", f.Kind)
		}
		if f.Addr < 10 || f.Addr >= 20 {
			t.Fatalf("addr %d out of [10,20)", f.Addr)
		}
		if f.Step >= 1000 {
			t.Fatalf("step %d out of range", f.Step)
		}
		if f.Bit > 63 {
			t.Fatalf("bit %d", f.Bit)
		}
	}
}

func TestMixedDrawsFromAllSubPopulations(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	m := Mixed{Pickers: []TargetPicker{
		UniformDst{TotalSteps: 100},
		UniformMem{TotalSteps: 100, FirstAddr: 1, LastAddr: 2},
	}}
	var dst, mem int
	for i := 0; i < 300; i++ {
		switch m.Pick(r).Kind {
		case interp.FaultDst:
			dst++
		case interp.FaultMem:
			mem++
		}
	}
	if dst == 0 || mem == 0 {
		t.Fatalf("mixed picker unbalanced: dst=%d mem=%d", dst, mem)
	}
	// Roughly half each (binomial with n=300: allow wide margin).
	if dst < 90 || mem < 90 {
		t.Errorf("mixed picker skewed: dst=%d mem=%d", dst, mem)
	}
}

func TestUniformMemCampaign(t *testing.T) {
	p := buildToleranceProg(t)
	res := mustRun(t, p, UniformMem{TotalSteps: 100, FirstAddr: 1, LastAddr: p.MemWords},
		campaign.WithTests(150), campaign.WithSeed(11))
	if res.Success+res.Failed+res.Crashed+res.NotApplied != res.Tests {
		t.Fatalf("outcomes do not sum: %+v", res)
	}
	// Memory flips in a pure-data program: some mask (low bits / unread
	// words), some fail (exponent bits of summed values).
	if res.Success == 0 {
		t.Error("no successes from memory faults")
	}
}
