package campaign

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunOrdersResults: whatever order workers finish in, emit sees results
// in index order, exactly once each.
func TestRunOrdersResults(t *testing.T) {
	const n = 50
	var got []int
	err := Run(context.Background(),
		Config{Items: n, Workers: 8},
		func(i int) (int, error) {
			// Reverse the natural completion bias so the reorder buffer works.
			time.Sleep(time.Duration((n-i)%7) * time.Millisecond)
			return i * i, nil
		},
		func(res int) bool {
			got = append(got, res)
			return true
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("emitted %d results, want %d", len(got), n)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("result %d = %d, want %d", i, v, i*i)
		}
	}
}

// TestRunEmitStop: emit returning false ends the run without error, having
// delivered exactly the prefix.
func TestRunEmitStop(t *testing.T) {
	seen := 0
	err := Run(context.Background(), Config{Items: 100, Workers: 4},
		func(i int) (int, error) { return i, nil },
		func(res int) bool {
			seen++
			return seen < 10
		})
	if err != nil {
		t.Fatal(err)
	}
	if seen != 10 {
		t.Fatalf("emitted %d results after stop, want 10", seen)
	}
}

// TestRunWorkError: the first work error cancels the rest and is returned;
// emission stays a clean prefix.
func TestRunWorkError(t *testing.T) {
	boom := errors.New("boom")
	last := -1
	err := Run(context.Background(), Config{Items: 100, Workers: 4},
		func(i int) (int, error) {
			if i == 20 {
				return 0, boom
			}
			return i, nil
		},
		func(res int) bool {
			if res != last+1 {
				t.Errorf("emission out of order: %d after %d", res, last)
			}
			last = res
			return true
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if last >= 20 {
		t.Fatalf("emitted result %d at or past the failed index", last)
	}
}

// TestRunCancellation: cancelling the context mid-run returns ctx.Err() and
// no emission happens after it is observed.
func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	seen := 0
	err := Run(ctx, Config{Items: 1000, Workers: 4},
		func(i int) (int, error) {
			time.Sleep(100 * time.Microsecond)
			return i, nil
		},
		func(res int) bool {
			seen++
			if seen == 5 {
				cancel()
			}
			return true
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if seen < 5 || seen >= 1000 {
		t.Fatalf("emitted %d results around cancellation", seen)
	}
	cancel()
}

// TestRunWindowBoundsInFlight: with Window set, the number of
// completed-but-unemitted results never exceeds the window.
func TestRunWindowBoundsInFlight(t *testing.T) {
	const (
		n      = 200
		window = 6
	)
	var completed, emitted, peak atomic.Int64
	err := Run(context.Background(), Config{Items: n, Workers: 3, Window: window},
		func(i int) (int, error) {
			time.Sleep(time.Duration(i%5) * 100 * time.Microsecond)
			c := completed.Add(1)
			if f := c - emitted.Load(); f > peak.Load() {
				peak.Store(f)
			}
			return i, nil
		},
		func(res int) bool {
			// An artificially slow consumer forces workers to fill the
			// window. The emission counts once emit is done: a slot freed
			// while it is still running would let a worker complete one
			// result past the window.
			if res == 0 {
				time.Sleep(5 * time.Millisecond)
			}
			emitted.Add(1)
			return true
		})
	if err != nil {
		t.Fatal(err)
	}
	if emitted.Load() != n {
		t.Fatalf("emitted %d, want %d", emitted.Load(), n)
	}
	if p := peak.Load(); p > window {
		t.Fatalf("peak in-flight completed results %d exceeds window %d", p, window)
	}
}

// TestRunZeroItems: an empty run emits nothing and succeeds.
func TestRunZeroItems(t *testing.T) {
	err := Run(context.Background(), Config{Items: 0, Workers: 4},
		func(i int) (int, error) { return 0, fmt.Errorf("must not run") },
		func(int) bool { t.Fatal("must not emit"); return false })
	if err != nil {
		t.Fatal(err)
	}
}

// TestWorkers pins the pool-size resolution.
func TestWorkers(t *testing.T) {
	if w := workers(4, 100); w != 4 {
		t.Errorf("workers(4, 100) = %d", w)
	}
	if w := workers(8, 3); w != 3 {
		t.Errorf("workers(8, 3) = %d", w)
	}
	if w := workers(0, 100); w < 1 {
		t.Errorf("workers(0, 100) = %d", w)
	}
}

// TestRunReentrant: the engine carries no global state — concurrent Runs
// interleave safely (the campaign engines nest worlds inside workers).
func TestRunReentrant(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			next := 0
			err := Run(context.Background(), Config{Items: 30, Workers: 3},
				func(i int) (int, error) { return i + g, nil },
				func(res int) bool {
					if res != next+g {
						t.Errorf("goroutine %d: got %d, want %d", g, res, next+g)
					}
					next++
					return true
				})
			if err != nil {
				t.Error(err)
			}
		}(g)
	}
	wg.Wait()
}

// TestRunFirst: a resume offset schedules only First..Items-1 — work is
// never called below First — and emit sees exactly the resumed suffix, in
// order.
func TestRunFirst(t *testing.T) {
	const n, first = 30, 12
	var got []int
	err := Run(context.Background(),
		Config{Items: n, First: first, Workers: 4},
		func(i int) (int, error) {
			if i < first {
				t.Errorf("work called with replayed index %d", i)
			}
			return i, nil
		},
		func(res int) bool {
			got = append(got, res)
			return true
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n-first {
		t.Fatalf("emitted %d results, want %d", len(got), n-first)
	}
	for k, v := range got {
		if v != first+k {
			t.Fatalf("result %d = %d, want %d", k, v, first+k)
		}
	}
}

// TestRunFirstDone: when everything was already replayed there is nothing
// to schedule — no work calls, no emissions, nil error.
func TestRunFirstDone(t *testing.T) {
	for _, first := range []int{10, 11, 50} {
		err := Run(context.Background(), Config{Items: 10, First: first, Workers: 4},
			func(i int) (int, error) {
				t.Errorf("work called with index %d on a completed campaign", i)
				return 0, nil
			},
			func(res int) bool {
				t.Error("emit called on a completed campaign")
				return true
			})
		if err != nil {
			t.Fatalf("First=%d: %v", first, err)
		}
	}
}

// TestRunWindow: a window [First, Items) stopped by emit executes no index
// below First, and emit sees exactly First up to the index it stopped at,
// in order.
func TestRunWindow(t *testing.T) {
	const n, first, stop = 40, 12, 29
	var got []int
	err := Run(context.Background(),
		Config{Items: n, First: first, Workers: 4},
		func(i int) (int, error) {
			if i < first {
				t.Errorf("work called with index %d below window start %d", i, first)
			}
			return i, nil
		},
		func(res int) bool {
			got = append(got, res)
			return res < stop
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != stop-first+1 {
		t.Fatalf("emitted %d results, want %d", len(got), stop-first+1)
	}
	for k, v := range got {
		if v != first+k {
			t.Fatalf("result %d = %d, want %d", k, v, first+k)
		}
	}
}

// TestRunWindowEmpty: an empty window is a no-op — no work, no emission,
// nil error — whether First reaches Items or there are no items at all.
func TestRunWindowEmpty(t *testing.T) {
	for _, w := range []struct{ items, first int }{
		{10, 10}, // empty at the end
		{10, 15}, // entirely past Items
		{0, 0},   // no items
		{0, -2},  // no items, negative First
	} {
		err := Run(context.Background(), Config{Items: w.items, First: w.first, Workers: 4},
			func(i int) (int, error) {
				t.Errorf("window [%d, %d): work called with index %d", w.first, w.items, i)
				return 0, nil
			},
			func(int) bool {
				t.Errorf("window [%d, %d): emit called", w.first, w.items)
				return true
			})
		if err != nil {
			t.Fatalf("window [%d, %d): %v", w.first, w.items, err)
		}
	}
}

// TestRunWindowClamps: a zero or negative First clamps to zero — the
// full-range default.
func TestRunWindowClamps(t *testing.T) {
	for _, first := range []int{0, -1, -3} {
		var got []int
		err := Run(context.Background(), Config{Items: 10, First: first, Workers: 4},
			func(i int) (int, error) { return i, nil },
			func(res int) bool {
				got = append(got, res)
				return true
			})
		if err != nil {
			t.Fatalf("First=%d: %v", first, err)
		}
		if len(got) != 10 {
			t.Fatalf("First=%d: emitted %d results, want all 10", first, len(got))
		}
		for k, v := range got {
			if v != k {
				t.Fatalf("First=%d: result %d = %d", first, k, v)
			}
		}
	}
}

// TestRunWindowPartition: runs that each stop at a bound, every one starting
// its window where the previous stopped, partition the index space — the
// concatenation of their emissions is exactly the full range, each index
// exactly once. A journal resume relies on it: the window starts where the
// replayed prefix ends.
func TestRunWindowPartition(t *testing.T) {
	const n = 53
	bounds := []int{0, 9, 17, 40, n}
	var got []int
	for s := 0; s+1 < len(bounds); s++ {
		end := bounds[s+1]
		err := Run(context.Background(),
			Config{Items: n, First: len(got), Workers: 3},
			func(i int) (int, error) { return i, nil },
			func(res int) bool {
				got = append(got, res)
				return res+1 < end
			})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != end {
			t.Fatalf("window %d stopped after %d results, want %d", s, len(got), end)
		}
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("concatenated result %d = %d", i, v)
		}
	}
}

// TestRunFirstClampsWorkers: the pool never exceeds the remaining items —
// with 2 items left, at most 2 workers ever run, however large the knob.
func TestRunFirstClampsWorkers(t *testing.T) {
	const n, first = 10, 8
	var inFlight, peak atomic.Int32
	err := Run(context.Background(), Config{Items: n, First: first, Workers: 16},
		func(i int) (int, error) {
			cur := inFlight.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			time.Sleep(5 * time.Millisecond)
			inFlight.Add(-1)
			return i, nil
		},
		func(res int) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > n-first {
		t.Fatalf("peak concurrency %d with only %d items remaining", p, n-first)
	}
}

// TestRunFirstWithWindow: the in-flight window and the resume offset
// compose — ordered delivery of exactly the tail under a 2-slot window.
func TestRunFirstWithWindow(t *testing.T) {
	const n, first = 40, 25
	var got []int
	err := Run(context.Background(), Config{Items: n, First: first, Workers: 4, Window: 2},
		func(i int) (int, error) {
			time.Sleep(time.Duration((n-i)%3) * time.Millisecond)
			return i, nil
		},
		func(res int) bool {
			got = append(got, res)
			return true
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n-first {
		t.Fatalf("emitted %d results, want %d", len(got), n-first)
	}
	for k, v := range got {
		if v != first+k {
			t.Fatalf("result %d = %d, want %d", k, v, first+k)
		}
	}
}
