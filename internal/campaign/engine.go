// Package campaign is the one campaign driver both engines (inject, mpi)
// run on. Campaign draws a campaign's fault stream once, opens, replays,
// checks and commits its durable journal, applies the early-stopping rule,
// runs the rest of the stream as one window, and yields the outcome stream
// and its journal.Record form; an engine supplies only an Executor — plan
// a window, run one fault, convert an outcome to and from its journal
// record.
//
// Underneath sits the ordered fan-out (Run): a pre-drawn stream of indexed
// work items executed over a bounded worker pool, with a reorder buffer
// delivering results in index order, an optional in-flight window bounding
// completed-but-unemitted results, prompt context cancellation, and no
// goroutines outliving the call. The concurrency rules there are subtle
// (slot-before-index acquisition, the stopped/next emission loop,
// error-path shutdown); keeping one copy lets every campaign share the same
// proofs.
package campaign

import (
	"context"
	"runtime"
	"sync"
)

// workers resolves a parallelism knob against an item count: non-positive
// means GOMAXPROCS, and the pool never exceeds the number of items.
func workers(parallelism, items int) int {
	w := parallelism
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > items {
		w = items
	}
	return w
}

// Config shapes one Run of the engine.
type Config struct {
	// Items is the number of work indices (0..Items-1).
	Items int
	// First starts the window of indices actually executed, [First,
	// Items). Indices below First were already delivered by the caller
	// (e.g. replayed from a durable journal), so the engine schedules only
	// the window. A negative First means 0.
	First int
	// Workers is the resolved pool size (see workers); values below 1 are
	// treated as 1.
	Workers int
	// Window, when positive, bounds completed-but-unemitted results: a worker
	// takes a slot before starting an item and emission (in index order)
	// frees it once emit returns, so at most Window results are ever in
	// flight. Use it when results are heavy (full traces, whole worlds) and
	// the reorder buffer must not absorb the whole campaign behind one slow
	// early item. Slots are acquired before indices — which are handed out
	// in increasing order — so the lowest unemitted item always already
	// holds a slot and emission is never blocked behind slot acquisition
	// (no deadlock).
	Window int
}

// Run fans the work items out over the pool and delivers results to emit in
// increasing index order (a reorder buffer absorbs out-of-order worker
// completions). emit returning false stops the run (early stop or a broken
// consumer loop); cancelling ctx stops it with ctx.Err(); a work error stops
// it with that error. In every case Run waits for its workers to exit before
// returning, so no goroutines outlive the call.
func Run[R any](ctx context.Context, cfg Config, work func(index int) (R, error), emit func(res R) bool) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	n := cfg.Items
	first := cfg.First
	if first < 0 {
		first = 0
	}
	if n <= first {
		return nil
	}
	workers := cfg.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > n-first {
		workers = n - first
	}

	// wctx stops the workers; cancelled on early stop, on caller
	// cancellation, and on the first worker error.
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()

	indices := make(chan int, n-first)
	for i := first; i < n; i++ {
		indices <- i
	}
	close(indices)
	type item struct {
		index int
		res   R
	}
	// results holds every possible send, so workers never block on it and
	// always reach their context check.
	results := make(chan item, n-first)
	var window chan struct{}
	if cfg.Window > 0 {
		window = make(chan struct{}, cfg.Window)
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				// The slot is acquired BEFORE taking an index (see
				// Config.Window).
				if window != nil {
					select {
					case window <- struct{}{}:
					case <-wctx.Done():
						return
					}
				}
				i, ok := <-indices
				if !ok {
					return
				}
				if wctx.Err() != nil {
					return
				}
				r, err := work(i)
				if err != nil {
					errs[w] = err
					cancel()
					return
				}
				results <- item{index: i, res: r}
			}
		}(w)
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// Reorder concurrent completions into index order and emit.
	pending := make(map[int]item, workers)
	next := first
	stopped := false
	flush := func(it item) {
		pending[it.index] = it
		for !stopped {
			head, ok := pending[next]
			if !ok {
				return
			}
			if ctx.Err() != nil {
				stopped = true
				return
			}
			delete(pending, next)
			next++
			if !emit(head.res) {
				stopped = true
			}
			if window != nil {
				// Every pending entry came from a worker holding a slot;
				// this receive never blocks. Freeing it only once emit has
				// returned keeps a worker from completing one more item
				// while this one is still being emitted.
				<-window
			}
		}
	}
	for !stopped && next < n {
		select {
		case it, ok := <-results:
			if !ok {
				// Workers exited early (error path): nothing more will
				// arrive.
				stopped = true
				break
			}
			flush(it)
		case <-ctx.Done():
			stopped = true
		}
	}
	cancel()
	wg.Wait()

	if err := ctx.Err(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
