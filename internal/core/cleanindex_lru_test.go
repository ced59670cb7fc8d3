package core

import (
	"testing"
)

// setGraphCacheBound caps the clean DDDGs the index keeps, evicting
// least-recently-touched instances beyond n.
func setGraphCacheBound(ix *CleanIndex, n int) {
	ix.mu.Lock()
	ix.bound = n
	ix.evictLocked()
	ix.mu.Unlock()
}

// TestGraphCacheLRUBound exercises the CleanIndex DDDG cache bound: touched
// instances beyond the bound evict the least recently used entry, re-touch
// refreshes recency, and results are identical cached or rebuilt.
func TestGraphCacheLRUBound(t *testing.T) {
	an, err := NewAnalyzer("cg")
	if err != nil {
		t.Fatal(err)
	}
	ix, err := an.Index()
	if err != nil {
		t.Fatal(err)
	}
	spans := ix.Spans()
	if len(spans) < 4 {
		t.Fatalf("cg splits into %d instances; need at least 4", len(spans))
	}
	cached := func() int {
		ix.mu.Lock()
		defer ix.mu.Unlock()
		if len(ix.entries) != ix.lru.Len() {
			t.Fatalf("cache invariant broken: %d entries, %d LRU nodes", len(ix.entries), ix.lru.Len())
		}
		return len(ix.entries)
	}

	setGraphCacheBound(ix, 2)
	g0 := ix.Graph(spans[0])
	g1 := ix.Graph(spans[1])
	if n := cached(); n != 2 {
		t.Fatalf("cached = %d, want 2", n)
	}
	// Touch 0 so 1 becomes the eviction victim, then insert 2.
	if ix.Graph(spans[0]) != g0 {
		t.Error("cached graph identity changed on re-touch")
	}
	ix.Graph(spans[2])
	if n := cached(); n != 2 {
		t.Fatalf("cached = %d after eviction, want 2", n)
	}
	ix.mu.Lock()
	_, has0 := ix.entries[spanKey{spans[0].RegionID, spans[0].Instance}]
	_, has1 := ix.entries[spanKey{spans[1].RegionID, spans[1].Instance}]
	ix.mu.Unlock()
	if !has0 || has1 {
		t.Errorf("LRU order wrong: has0=%v has1=%v (want victim = span 1)", has0, has1)
	}
	// An evicted instance rebuilds to an equivalent graph.
	g1b := ix.Graph(spans[1])
	if g1b == g1 {
		t.Error("evicted graph returned by identity (no rebuild?)")
	}
	if len(g1b.Nodes) != len(g1.Nodes) {
		t.Errorf("rebuilt graph differs: %d vs %d nodes", len(g1b.Nodes), len(g1.Nodes))
	}
	// Input locations ride the same slots and survive eviction by rebuild.
	locsA := ix.InputLocs(spans[3])
	locsB := ix.InputLocs(spans[3])
	if len(locsA) != len(locsB) {
		t.Errorf("InputLocs changed across calls: %d vs %d", len(locsA), len(locsB))
	}
	// Shrinking the bound evicts immediately.
	setGraphCacheBound(ix, 1)
	if n := cached(); n != 1 {
		t.Fatalf("cached = %d after shrink, want 1", n)
	}
}
