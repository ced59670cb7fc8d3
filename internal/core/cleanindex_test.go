package core

import (
	"context"
	"sync"
	"testing"

	"fliptracker/internal/campaign"
	"fliptracker/internal/dddg"
	"fliptracker/internal/inject"
	"fliptracker/internal/trace"
)

// TestCleanIndexSlotsBuildOnce: concurrent Graph and InputLocs calls over
// every clean span of one app, in different orders, all get the one graph
// and the one input-location slice built for that span, and the graph is
// the span's own.
func TestCleanIndexSlotsBuildOnce(t *testing.T) {
	an, err := NewAnalyzer("kmeans")
	if err != nil {
		t.Fatal(err)
	}
	ix, err := an.Index()
	if err != nil {
		t.Fatal(err)
	}
	spans := ix.Spans()
	if len(spans) < 2 {
		t.Fatalf("kmeans splits into %d instances; need at least 2", len(spans))
	}
	first := func(l []trace.Loc) *trace.Loc {
		if cap(l) == 0 {
			return nil
		}
		return &l[:1][0]
	}

	const callers = 8
	graphs := make([][]*dddg.Graph, callers)
	inputs := make([][]*trace.Loc, callers)
	var wg sync.WaitGroup
	for c := range callers {
		graphs[c] = make([]*dddg.Graph, len(spans))
		inputs[c] = make([]*trace.Loc, len(spans))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range spans {
				i := k
				if c%2 == 1 {
					i = len(spans) - 1 - k
				}
				if c%3 == 0 {
					inputs[c][i] = first(ix.InputLocs(spans[i]))
					graphs[c][i] = ix.Graph(spans[i])
				} else {
					graphs[c][i] = ix.Graph(spans[i])
					inputs[c][i] = first(ix.InputLocs(spans[i]))
				}
			}
		}()
	}
	wg.Wait()

	for i, s := range spans {
		g := graphs[0][i]
		if g == nil || g.Span() != s {
			t.Fatalf("span %d: graph %p is not the span's own", i, g)
		}
		if want := dddg.Build(ix.Clean(), s); len(g.Nodes) != len(want.Nodes) || len(g.Edges) != len(want.Edges) {
			t.Errorf("span %d: cached graph has %d nodes/%d edges, a fresh build %d/%d",
				i, len(g.Nodes), len(g.Edges), len(want.Nodes), len(want.Edges))
		}
		for c := 1; c < callers; c++ {
			if graphs[c][i] != g {
				t.Errorf("span %d: caller %d got graph %p, caller 0 %p", i, c, graphs[c][i], g)
			}
			if inputs[c][i] != inputs[0][i] {
				t.Errorf("span %d: caller %d got another input-location slice", i, c)
			}
		}
		if ix.Graph(s) != g || first(ix.InputLocs(s)) != inputs[0][i] {
			t.Errorf("span %d: a later call rebuilt the slot", i)
		}
	}
}

// TestAnalysisOptionCarriesCampaignOutcome runs an analyzed campaign whose
// verifier differs from the application's: it rejects every run. Each
// FaultAnalysis must carry the campaign's own classification of its fault,
// not one reached with the application's verifier.
func TestAnalysisOptionCarriesCampaignOutcome(t *testing.T) {
	an, err := NewAnalyzer("kmeans")
	if err != nil {
		t.Fatal(err)
	}
	ix, err := an.Index()
	if err != nil {
		t.Fatal(err)
	}
	c, err := inject.NewCampaign(an.App.NewMachine, func(*trace.Trace) bool { return false },
		inject.UniformDst{TotalSteps: ix.Clean().Steps},
		campaign.WithTests(24), campaign.WithSeed(3), ix.AnalysisOption())
	if err != nil {
		t.Fatal(err)
	}
	appWouldPass := 0
	for fo, err := range c.Stream(context.Background()) {
		if err != nil {
			t.Fatal(err)
		}
		fa := fo.Analysis.(*FaultAnalysis)
		if fa.Outcome != fo.Outcome {
			t.Errorf("fault %d (%v): analysis outcome %v, campaign counted %v", fo.Index, fo.Fault, fa.Outcome, fo.Outcome)
		}
		if fo.Outcome == inject.Failed && an.App.Verify(fa.Faulty) {
			appWouldPass++
		}
	}
	if appWouldPass == 0 {
		t.Fatal("fixture defect: the application's verifier rejects every faulty run too")
	}
}
