package core

import (
	"sync"
	"testing"
)

// TestAnalyzersBuildOnce: concurrent callers share one analyzer per app and
// one per world shape, each built once; a failed build is cached as well.
func TestAnalyzersBuildOnce(t *testing.T) {
	var a Analyzers
	const callers = 8
	ans := make([]*Analyzer, callers)
	mas := make([]*MPIAnalyzer, callers)
	var wg sync.WaitGroup
	for i := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if ans[i], err = a.Analyzer("kmeans"); err != nil {
				t.Error(err)
			}
			if mas[i], err = a.MPIAnalyzer("kmeans", 2, i%2); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for i := range callers {
		if ans[i] != ans[0] || mas[i] != mas[i%2] {
			t.Fatalf("caller %d got a different analyzer", i)
		}
	}
	if mas[0] == mas[1] || mas[0].FaultRank != 0 || mas[1].FaultRank != 1 {
		t.Errorf("world shapes (2, 0) and (2, 1) share an analyzer or carry the wrong fault rank")
	}
	if got := a.Built(); got != 3 {
		t.Errorf("Built() = %d, want 3", got)
	}
	for range 2 {
		if _, err := a.Analyzer("nosuchapp"); err == nil {
			t.Error("unknown app built an analyzer")
		}
	}
	if got := a.Built(); got != 3 {
		t.Errorf("after failed builds Built() = %d, want 3", got)
	}
}
