// Command ftserve runs the FlipTracker campaign service: a long-running
// HTTP/JSON server (internal/server) that accepts resilience-campaign
// submissions, executes them on the campaign driver, and streams their
// deterministic outcome streams as NDJSON. A spec's deprecated "shards"
// and "static_prune" fields are accepted and ignored: every campaign runs
// as one window, plain MPI campaigns always skip the faults that cannot
// fire, and inject campaigns never do.
//
// Usage:
//
//	ftserve [-addr :8080] [-data DIR] [-max-running N] [-max-campaigns N] [-drain-timeout D]
//
// With -data, campaigns are journaled under DIR: kill the server
// mid-campaign, restart it, re-submit the same id and spec, and the
// campaign resumes from its last committed outcome. On SIGINT/SIGTERM the
// server stops accepting work, drains running campaigns for -drain-timeout,
// then cancels the stragglers (safe under -data — their journals resume
// them later) and exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"fliptracker/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	data := flag.String("data", "", "journal directory for durable campaigns (empty: in-memory only)")
	maxRunning := flag.Int("max-running", 2, "campaigns executing concurrently")
	maxCampaigns := flag.Int("max-campaigns", 64, "campaigns tracked at once, finished ones included; a new campaign evicts the oldest finished one")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for running campaigns")
	flag.Parse()

	if err := run(*addr, *data, *maxRunning, *maxCampaigns, *drainTimeout); err != nil {
		fmt.Fprintln(os.Stderr, "ftserve:", err)
		os.Exit(1)
	}
}

func run(addr, data string, maxRunning, maxCampaigns int, drainTimeout time.Duration) error {
	if data != "" {
		if err := os.MkdirAll(data, 0o755); err != nil {
			return err
		}
	}
	svc := server.New(server.Options{
		DataDir:      data,
		MaxRunning:   maxRunning,
		MaxCampaigns: maxCampaigns,
	})
	httpSrv := &http.Server{Addr: addr, Handler: svc}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("ftserve: listening on %s (data=%q, max-running=%d)", addr, data, maxRunning)
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop()
	log.Printf("ftserve: shutting down, draining campaigns (timeout %s)", drainTimeout)

	dctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := svc.Drain(dctx); err != nil {
		log.Printf("ftserve: drain expired, campaigns cancelled: %v", err)
	}
	if err := httpSrv.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		httpSrv.Close()
		return err
	}
	log.Printf("ftserve: bye")
	return nil
}
