package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"fliptracker/internal/apps"
	"fliptracker/internal/coord"
	"fliptracker/internal/core"
	"fliptracker/internal/inject"
	"fliptracker/internal/interp"
	"fliptracker/internal/journal"
	"fliptracker/internal/mpi"
	"fliptracker/internal/server"
)

// pinnedSpec is the CI smoke campaign whose NDJSON stream digest is pinned;
// the client's digest path must reproduce it.
var pinnedSpec = server.Spec{App: "kmeans", Engine: "inject", Seed: 20181111, Tests: 24, Shards: 4}

const pinnedDigest = 0x8bf2e5a558a6606a

// Applications of the serve-mixed mix: cheap inject apps and the MPI apps.
var (
	serveInjectApps = []string{"kmeans", "mg", "ft", "sp", "dc"}
	serveMPIApps    = []string{"is", "cg"}
)

const (
	mpiRanks     = 3
	mpiFaultRank = 1
)

// serveSpecs generates the service traffic: three in four campaigns are
// statically pruned, 2-4-shard inject campaigns over a cheap app, the rest
// 3-rank MPI campaigns.
func serveSpecs(seed int64, n int) []server.Spec {
	rng := rand.New(rand.NewSource(seed))
	specs := make([]server.Spec, n)
	for i := range specs {
		if rng.Intn(4) == 0 {
			specs[i] = server.Spec{
				App: serveMPIApps[rng.Intn(len(serveMPIApps))], Engine: "mpi",
				Ranks: mpiRanks, FaultRank: mpiFaultRank,
				Tests: 6 + rng.Intn(7), Seed: rng.Int63(),
			}
			continue
		}
		specs[i] = server.Spec{
			App: serveInjectApps[rng.Intn(len(serveInjectApps))], Engine: "inject",
			Tests: 24 + rng.Intn(25), Shards: 2 + rng.Intn(3), StaticPrune: true,
			Seed: rng.Int63(),
		}
	}
	return specs
}

// warmupSpecs is one small campaign per (app, engine) of the mix, shaped
// like the traffic so every analyzer, clean world and static pruner the
// service caches is built before timing.
func warmupSpecs() []server.Spec {
	var out []server.Spec
	for _, a := range serveInjectApps {
		out = append(out, server.Spec{App: a, Engine: "inject", Tests: 4, Shards: 2, StaticPrune: true, Seed: 1})
	}
	for _, a := range serveMPIApps {
		out = append(out, server.Spec{App: a, Engine: "mpi", Ranks: mpiRanks, FaultRank: mpiFaultRank, Tests: 2, Seed: 1})
	}
	return out
}

// ---- the ftserve process ----

type ftserve struct {
	cmd *exec.Cmd
	url string
}

// startServer launches ftserve on a free loopback port over dataDir and
// waits for /healthz. gomaxprocs > 0 pins the server's GOMAXPROCS.
func startServer(bin, dataDir string, maxRunning, gomaxprocs int) (*ftserve, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	// Finished campaigns are never evicted, so the default -max-campaigns
	// (64) would refuse the 65th POST; size it to cover any run.
	cmd := exec.Command(bin, "-addr", addr, "-data", dataDir,
		"-max-running", strconv.Itoa(maxRunning), "-max-campaigns", "1000000", "-drain-timeout", "5s")
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	// Should the benchmark die before stop, the kernel kills the server.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if gomaxprocs > 0 {
		cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(gomaxprocs))
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start ftserve: %w", err)
	}
	s := &ftserve{cmd: cmd, url: "http://" + addr}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(s.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	s.stop()
	return nil, fmt.Errorf("ftserve at %s did not become healthy", addr)
}

// stop shuts the server down (SIGTERM, then SIGKILL after a grace period)
// and waits for it to exit.
func (s *ftserve) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		s.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		s.cmd.Process.Kill()
		<-done
	}
}

// ---- the client ----

// serveRun is one campaign as the client saw it.
type serveRun struct {
	spec     server.Spec
	ran      bool
	refused  bool
	err      error
	post     time.Duration // POST sent until its response is read
	first    time.Duration // POST sent until the first NDJSON record
	wall     time.Duration // POST sent until the done line
	doneLine time.Duration // last record until the done line
	end      time.Time     // when the done line arrived
	gaps     []float64     // ms between consecutive records
	records  int
	bytes    int
	digest   uint64
}

var httpClient = &http.Client{
	Timeout:   150 * time.Second,
	Transport: &http.Transport{MaxIdleConnsPerHost: 64},
}

// submit POSTs spec under id, follows its NDJSON stream to the done line,
// and digests the record lines exactly as the CI smoke test does.
func submit(url string, spec server.Spec, id string) serveRun {
	run := serveRun{spec: spec, ran: true}
	spec.ID = id
	body, err := json.Marshal(spec)
	if err != nil {
		run.err = err
		return run
	}
	t0 := time.Now()
	resp, err := httpClient.Post(url+"/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		run.err = fmt.Errorf("POST: %w", err)
		return run
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	tPost := time.Now()
	run.post = tPost.Sub(t0)
	if resp.StatusCode != http.StatusCreated {
		run.refused = true
		run.err = fmt.Errorf("POST refused: %d %s", resp.StatusCode, bytes.TrimSpace(msg))
		return run
	}
	resp, err = httpClient.Get(url + "/campaigns/" + id + "/stream")
	if err != nil {
		run.err = fmt.Errorf("stream: %w", err)
		return run
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	d := newDigest()
	last := tPost
	for {
		line, rerr := br.ReadBytes('\n')
		if len(line) > 0 {
			now := time.Now()
			line = bytes.TrimSuffix(line, []byte("\n"))
			if bytes.Contains(line, []byte(`"done":true`)) {
				var end struct {
					State string `json:"state"`
					Error string `json:"error"`
				}
				if err := json.Unmarshal(line, &end); err != nil || end.State != server.StateDone {
					run.err = fmt.Errorf("campaign ended %q: %s %v", end.State, end.Error, err)
				}
				run.doneLine = now.Sub(last)
				run.wall = now.Sub(t0)
				run.end = now
				break
			}
			if run.records == 0 {
				run.first = now.Sub(t0)
			} else {
				run.gaps = append(run.gaps, ms(now.Sub(last)))
			}
			last = now
			run.records++
			run.bytes += len(line) + 1
			d.line(line)
		}
		if rerr != nil {
			run.err = fmt.Errorf("stream ended without a done line: %v", rerr)
			break
		}
	}
	run.digest = d.sum()
	if run.err == nil && run.records != spec.Tests {
		run.err = fmt.Errorf("%d records, want %d", run.records, spec.Tests)
	}
	return run
}

// closedLoop runs specs through clients concurrent clients, each submitting
// its next campaign only after the previous one's done line. No campaign
// starts after seconds have passed.
func closedLoop(url string, specs []server.Spec, clients int, seconds float64) ([]serveRun, time.Time, time.Duration) {
	runs := make([]serveRun, len(specs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(specs) || time.Since(start).Seconds() >= seconds {
					return
				}
				runs[i] = submit(url, specs[i], fmt.Sprintf("c%d", i))
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	out := runs[:0]
	for _, r := range runs {
		if r.ran {
			out = append(out, r)
		}
	}
	return out, start, wall
}

// windowedMsPerFault is the service's cost per fault, as the median over
// windows of size consecutive campaign completions of the time the window
// spans over the records its campaigns delivered. The median is robust to a
// stall that hits only part of the phase.
func windowedMsPerFault(runs []serveRun, start time.Time, size int) float64 {
	var done []serveRun
	for _, r := range runs {
		if r.err == nil {
			done = append(done, r)
		}
	}
	sort.Slice(done, func(i, j int) bool { return done[i].end.Before(done[j].end) })
	var vals []float64
	prev := start
	for i := 0; i+size <= len(done); i += size {
		recs := 0
		for _, r := range done[i : i+size] {
			recs += r.records
		}
		end := done[i+size-1].end
		vals = append(vals, ms(end.Sub(prev))/float64(recs))
		prev = end
	}
	return median(vals)
}

// ---- the reference ----

// recLine mirrors the service's NDJSON record line (internal/server's
// recJSON), so a library stream renders to the same bytes.
type recLine struct {
	Index     uint64    `json:"index"`
	Fault     faultLine `json:"fault"`
	Outcome   string    `json:"outcome"`
	PropClass string    `json:"prop_class,omitempty"`
	PropRanks []int     `json:"prop_ranks,omitempty"`
}

type faultLine struct {
	Step uint64 `json:"step"`
	Bit  uint8  `json:"bit"`
	Kind string `json:"kind"`
	Addr int64  `json:"addr,omitempty"`
}

func renderRecord(engine string, rec journal.Record) []byte {
	l := recLine{
		Index:   rec.Index,
		Fault:   faultLine{Step: rec.Fault.Step, Bit: rec.Fault.Bit, Kind: rec.Fault.Kind.String(), Addr: rec.Fault.Addr},
		Outcome: inject.Outcome(rec.Outcome).String(),
	}
	if engine == "mpi" {
		l.PropClass = mpi.PropagationClass(rec.PropClass).String()
		l.PropRanks = rec.PropRanks
	}
	b, _ := json.Marshal(l)
	return b
}

// refEnv holds the benchmark's own in-process analyzers, used for the
// reference streams and the per-layer replays.
type refEnv struct {
	mu sync.Mutex
	an map[string]*core.Analyzer
	ma map[string]*core.MPIAnalyzer
}

func newRefEnv() *refEnv {
	return &refEnv{an: map[string]*core.Analyzer{}, ma: map[string]*core.MPIAnalyzer{}}
}

func (e *refEnv) analyzer(app string) (*core.Analyzer, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if an, ok := e.an[app]; ok {
		return an, nil
	}
	an, err := core.NewAnalyzer(app)
	if err != nil {
		return nil, err
	}
	e.an[app] = an
	return an, nil
}

func (e *refEnv) mpiAnalyzer(app string, ranks, faultRank int) (*core.MPIAnalyzer, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	key := fmt.Sprintf("%s/%d/%d", app, ranks, faultRank)
	if ma, ok := e.ma[key]; ok {
		return ma, nil
	}
	ma, err := core.NewMPIAnalyzer(app, ranks)
	if err != nil {
		return nil, err
	}
	ma.FaultRank = faultRank
	e.ma[key] = ma
	return ma, nil
}

// reference renders spec's stream the plain way: through the library,
// unsharded, unpruned and unjournaled.
func (e *refEnv) reference(spec server.Spec, parallelism int) (uint64, error) {
	d := newDigest()
	switch spec.Engine {
	case "inject":
		an, err := e.analyzer(spec.App)
		if err != nil {
			return 0, err
		}
		c, err := an.NewCampaign(core.WholeProgram(), inject.WithTests(spec.Tests), inject.WithSeed(spec.Seed), inject.WithParallelism(parallelism))
		if err != nil {
			return 0, err
		}
		for fo, err := range c.Stream(context.Background()) {
			if err != nil {
				return 0, err
			}
			d.line(renderRecord("inject", journal.Record{Index: uint64(fo.Index), Outcome: uint8(fo.Outcome), Fault: fo.Fault}))
		}
	case "mpi":
		ma, err := e.mpiAnalyzer(spec.App, spec.Ranks, spec.FaultRank)
		if err != nil {
			return 0, err
		}
		c, err := ma.NewCampaign(nil, mpi.WithTests(spec.Tests), mpi.WithSeed(spec.Seed), mpi.WithParallelism(parallelism))
		if err != nil {
			return 0, err
		}
		for wo, err := range c.Stream(context.Background()) {
			if err != nil {
				return 0, err
			}
			d.line(renderRecord("mpi", journal.Record{Index: uint64(wo.Index), Outcome: uint8(wo.Outcome), Fault: wo.Fault,
				PropClass: uint8(wo.Propagation.Class), PropRanks: wo.Propagation.Ranks}))
		}
	default:
		return 0, fmt.Errorf("unknown engine %q", spec.Engine)
	}
	return d.sum(), nil
}

// checkServe counts every failed campaign and compares the stream digest
// of every other completed campaign with its library reference. Half the
// campaigns keep the reference runs (as costly as the service's own work)
// within a run's time budget.
func checkServe(runs []serveRun, ref *refEnv, r *report) {
	parallelism := runtime.NumCPU()
	for i, run := range runs {
		r.attempted++
		if run.err != nil {
			r.fail("%s %s seed %d: %v", run.spec.Engine, run.spec.App, run.spec.Seed, run.err)
			continue
		}
		if i%2 == 1 {
			continue
		}
		want, err := ref.reference(run.spec, parallelism)
		if err != nil {
			r.fail("%s %s seed %d: reference: %v", run.spec.Engine, run.spec.App, run.spec.Seed, err)
			continue
		}
		if want != run.digest {
			r.fail("%s %s seed %d shards %d: stream digest %#x, library reference %#x", run.spec.Engine, run.spec.App, run.spec.Seed, run.spec.Shards, run.digest, want)
		}
	}
}

// ---- set-up ----

// serveSetup starts a fresh ftserve over a fresh data dir and submits the
// warm-up campaigns and the pinned CI campaign, whose digest must match.
// It returns the running server and how long start-up plus warm-up took.
func serveSetup(o opts, rep int, maxRunning, gomaxprocs int, r *report) (*ftserve, string, time.Duration, error) {
	dataDir := filepath.Join(o.workDir, fmt.Sprintf("serve-data-%d-%d", os.Getpid(), rep))
	if err := os.RemoveAll(dataDir); err != nil {
		return nil, "", 0, err
	}
	t0 := time.Now()
	s, err := startServer(o.ftserve, dataDir, maxRunning, gomaxprocs)
	if err != nil {
		return nil, "", 0, err
	}
	for i, spec := range warmupSpecs() {
		if run := submit(s.url, spec, fmt.Sprintf("warm%d", i)); run.err != nil {
			s.stop()
			return nil, "", 0, fmt.Errorf("warm-up %s %s: %w", spec.Engine, spec.App, run.err)
		}
	}
	pin := submit(s.url, pinnedSpec, "pinned")
	d := time.Since(t0)
	r.attempted++
	if pin.err != nil {
		r.fail("pinned CI campaign: %v", pin.err)
	} else if pin.digest != pinnedDigest {
		r.fail("pinned CI campaign: client digest %#x, CI pins %#x", pin.digest, uint64(pinnedDigest))
	}
	return s, dataDir, d, nil
}

// setupServeRepeated runs the set-up setupReps times and keeps the last
// server.
func setupServeRepeated(o opts, maxRunning, gomaxprocs int, r *report) (*ftserve, string, float64, error) {
	var times []float64
	var s *ftserve
	var dir string
	for rep := 0; rep < setupReps; rep++ {
		if s != nil {
			s.stop()
			os.RemoveAll(dir)
		}
		var d time.Duration
		var err error
		s, dir, d, err = serveSetup(o, rep, maxRunning, gomaxprocs, r)
		if err != nil {
			return nil, "", 0, err
		}
		times = append(times, d.Seconds())
	}
	return s, dir, median(times), nil
}

func runServeMixed(o opts, r *report) error {
	if o.ftserve == "" {
		return fmt.Errorf("serve-mixed needs --ftserve")
	}
	ref := newRefEnv()
	// The library reference of the pinned campaign must also reproduce the
	// CI digest, or the reference renderer (not the service) is wrong.
	if got, err := ref.reference(pinnedSpec, 1); err != nil || got != pinnedDigest {
		return fmt.Errorf("reference renderer: pinned campaign digest %#x (%v), CI pins %#x", got, err, uint64(pinnedDigest))
	}
	if o.trace {
		return traceServe(o, r, ref)
	}
	nproc := runtime.NumCPU()
	s, dir, setupS, err := setupServeRepeated(o, nproc, 0, r)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	specs := serveSpecs(o.seed, 100000)
	runs, start, wall := closedLoop(s.url, specs, o.clients, o.seconds)
	rss, rssErr := peakRSSMB(s.cmd.Process.Pid)
	s.stop()
	if rssErr != nil {
		return rssErr
	}

	var walls, firsts []float64
	records, refused := 0, 0
	for _, run := range runs {
		if run.err == nil {
			walls = append(walls, run.wall.Seconds())
			firsts = append(firsts, ms(run.first))
		}
		if run.refused {
			refused++
		}
		records += run.records
	}
	checkServe(runs, ref, r)
	r.set("ms_per_fault", windowedMsPerFault(runs, start, 25))
	r.set("campaign_s_p50", median(walls))
	r.set("campaign_s_p90", quantile(walls, 0.9))
	r.set("first_outcome_ms_p50", median(firsts))
	r.set("setup_s", setupS)
	r.set("peak_rss_mb", rss)
	r.note("campaigns=%d records=%d refused=%d clients=%d wall_s=%.3f whole-phase ms_per_fault=%.4f (p90 over %d samples)",
		len(runs), records, refused, o.clients, wall.Seconds(), ms(wall)/float64(records), len(walls))
	r.note("service capacity defect: internal/server never evicts finished campaigns, so a default ftserve (-max-campaigns 64) refuses every POST after its 64th campaign with 503; this benchmark passes -max-campaigns 1000000")
	return nil
}

// ---- traced run ----

// traceServe is serve-mixed's traced variant. One client submits the same
// generated campaigns serially to an ftserve pinned to GOMAXPROCS=1, so a
// campaign's client-side wall time is its serial cost. The client records
// POST, record-gap and done-line spans, and submits each campaign a second
// time untraced for the overhead. The same campaigns then replay
// in-process, serially, with the same shards and pruning, with spans
// around the machine factory and verifiers; their records replay through
// journal.Create/Append on the same filesystem; and the static pruner, MPI
// world checkpoints and interpreter are probed directly.
func traceServe(o opts, r *report, ref *refEnv) error {
	s, dir, _, err := setupServeRepeated(o, 1, 1, r)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	// Each campaign is submitted twice in a row, traced and untraced, so
	// both see the same server and machine state.
	var runs []serveRun
	var twall, pwall time.Duration
	start := time.Now()
	for i, spec := range serveSpecs(o.seed, 100000) {
		if twall.Seconds() >= o.seconds || time.Since(start).Seconds() >= 3*o.seconds {
			break
		}
		t := submit(s.url, spec, fmt.Sprintf("t%d", i))
		u := submit(s.url, spec, fmt.Sprintf("u%d", i))
		runs = append(runs, t)
		twall += t.wall
		pwall += u.wall
		if t.err == nil && u.err == nil && t.digest != u.digest {
			r.fail("%s %s seed %d: traced and untraced streams differ", spec.Engine, spec.App, spec.Seed)
		}
	}
	s.stop()
	checkServe(runs, ref, r)

	var clientWall, post, done time.Duration
	var posts, dones, gaps []float64
	records, bytesN, refused := 0, 0, 0
	for _, run := range runs {
		if run.refused {
			refused++
		}
		if run.err != nil {
			continue
		}
		clientWall += run.wall
		post += run.post
		done += run.doneLine
		posts = append(posts, ms(run.post))
		dones = append(dones, ms(run.doneLine))
		gaps = append(gaps, run.gaps...)
		records += run.records
		bytesN += run.bytes
	}
	if records == 0 {
		return fmt.Errorf("traced serve-mixed delivered no records")
	}
	r.set("server.post_ms_p50", median(posts))
	r.set("server.record_gap_ms_p99", quantile(gaps, 0.99))
	r.set("server.done_line_ms_p50", median(dones))
	r.set("server.ndjson_bytes_per_record", float64(bytesN)/float64(records))
	r.set("server.refused_frac", float64(refused)/float64(len(runs)))

	// In-process serial replay: engine layers and the journal's records.
	tr := newTracer()
	runtime.GC()
	a0 := allocMB()
	var recsets [][]journal.Record
	var headers []journal.Header
	injectRuns := 0
	for _, run := range runs {
		if run.err != nil {
			continue
		}
		if run.spec.Engine == "inject" {
			injectRuns++
		}
		recs, h, dig, err := ref.replaySerial(run.spec, tr)
		if err != nil {
			return err
		}
		if dig != run.digest {
			r.fail("%s %s seed %d: in-process sharded replay %#x differs from the service stream %#x", run.spec.Engine, run.spec.App, run.spec.Seed, dig, run.digest)
		}
		recsets = append(recsets, recs)
		headers = append(headers, h)
	}
	alloc := allocMB() - a0
	jtotal, err := replayJournal(r, dir, headers, recsets)
	if err != nil {
		return err
	}
	if err := probeStatic(r, ref, runs); err != nil {
		return err
	}
	if err := probeMPI(r, ref, runs); err != nil {
		return err
	}
	if err := probeInterp(r, serveInjectApps); err != nil {
		return err
	}
	if err := probeCore(r, serveInjectApps); err != nil {
		return err
	}

	f := float64(records)
	tr.mu.Lock()
	engine := tr.plan + tr.exec + tr.verify + tr.world
	if tr.execs > 0 {
		r.set("interp.exec_ms_per_fault", ms(tr.exec)/float64(tr.execs))
		r.set("inject.verify_us_per_fault", ms(tr.verify)*1e3/float64(tr.execs))
	}
	if injectRuns > 0 {
		r.set("inject.plan_ms_per_campaign", ms(tr.plan)/float64(injectRuns))
	}
	tr.mu.Unlock()
	attributed := post + done + engine + jtotal
	unattributed := clientWall - attributed
	r.set("campaign.unattributed_ms_per_fault", ms(unattributed)/f)
	r.set("bench.traced_ms_per_fault", ms(clientWall)/f)
	// The engine and journal shares are replays, not spans inside the
	// service, so the check is one-sided: the attributed layers may not
	// exceed the service's own wall time by more than the tolerance.
	excess := (attributed - clientWall).Seconds() / clientWall.Seconds()
	if excess < 0 {
		excess = 0
	}
	r.set("bench.layer_sum_error_frac", excess)
	if excess > serveLayerSumTolerance {
		r.fail("layer sum: attributed %.3fs exceeds the campaigns' wall %.3fs by %.1f%% (tolerance %.0f%%)",
			attributed.Seconds(), clientWall.Seconds(), 100*excess, 100*serveLayerSumTolerance)
	}
	r.set("go.alloc_mb_per_fault", alloc/f)
	r.set("bench.trace_overhead_frac", twall.Seconds()/pwall.Seconds()-1)
	r.set("bench.campaigns", float64(len(runs)))
	r.note("traced campaigns=%d records=%d client_wall_s=%.3f post_s=%.3f done_s=%.3f engine_replay_s=%.3f journal_s=%.3f", len(runs), records,
		clientWall.Seconds(), post.Seconds(), done.Seconds(), engine.Seconds(), jtotal.Seconds())
	return nil
}

// serveLayerSumTolerance bounds how far serve-mixed's replayed layers may
// exceed the service's measured wall time.
const serveLayerSumTolerance = 0.10

// replaySerial re-runs spec in-process, serially (one coordinator worker,
// engine parallelism 1), with the service's shards and pruning but no
// journal, and returns its merged records, journal header and rendered
// stream digest.
func (e *refEnv) replaySerial(spec server.Spec, tr *tracer) ([]journal.Record, journal.Header, uint64, error) {
	var runner coord.Runner
	switch spec.Engine {
	case "inject":
		an, err := e.analyzer(spec.App)
		if err != nil {
			return nil, journal.Header{}, 0, err
		}
		clean, err := an.CleanTrace()
		if err != nil {
			return nil, journal.Header{}, 0, err
		}
		opts := []inject.Option{inject.WithTests(spec.Tests), inject.WithSeed(spec.Seed), inject.WithParallelism(1),
			inject.WithScheduler(an.Scheduler), inject.WithJournalApp(an.App.Name)}
		if spec.StaticPrune {
			p, err := an.StaticPruner()
			if err != nil {
				return nil, journal.Header{}, 0, err
			}
			opts = append(opts, inject.WithStaticPrune(p))
		}
		c, err := inject.NewCampaign(tr.factory(an.App.NewMachine), tr.verifier(an.App.Verify), inject.UniformDst{TotalSteps: clean.Steps}, opts...)
		if err != nil {
			return nil, journal.Header{}, 0, err
		}
		h, err := coord.Inject(c)
		if err != nil {
			return nil, journal.Header{}, 0, err
		}
		runner, err = coord.New(h, coord.WithShards(spec.Shards), coord.WithWorkers(1))
		if err != nil {
			return nil, journal.Header{}, 0, err
		}
		tr.mpiGaps = false
	case "mpi":
		ma, err := e.mpiAnalyzer(spec.App, spec.Ranks, spec.FaultRank)
		if err != nil {
			return nil, journal.Header{}, 0, err
		}
		clean := ma.Clean()
		verify := func(faulty *mpi.Result) bool {
			ok := true
			tr.span(&tr.world, func() {
				for rk, rr := range faulty.Ranks {
					if !apps.VerifyOutputs(rr.Trace, clean.Ranks[rk].Trace.Output, ma.App.Tol) {
						ok = false
						return
					}
				}
			})
			return ok
		}
		c, err := ma.NewCampaign(nil, mpi.WithTests(spec.Tests), mpi.WithSeed(spec.Seed), mpi.WithParallelism(1), mpi.WithVerify(verify))
		if err != nil {
			return nil, journal.Header{}, 0, err
		}
		h, err := coord.MPI(c)
		if err != nil {
			return nil, journal.Header{}, 0, err
		}
		runner, err = coord.New(h, coord.WithShards(spec.Shards), coord.WithWorkers(1))
		if err != nil {
			return nil, journal.Header{}, 0, err
		}
		tr.mpiGaps = true
	default:
		return nil, journal.Header{}, 0, fmt.Errorf("unknown engine %q", spec.Engine)
	}
	d := newDigest()
	var recs []journal.Record
	tr.campaignStart(time.Now())
	for rec, err := range runner.Records(context.Background()) {
		if err != nil {
			return nil, journal.Header{}, 0, err
		}
		recs = append(recs, rec)
		d.line(renderRecord(spec.Engine, rec))
	}
	tr.campaignEnd(time.Now())
	return recs, runner.Header(), d.sum(), nil
}

// replayJournal writes each campaign's records through journal.Create and
// journal.Append in the service's data dir (same filesystem, one fsync per
// record) and reports the append latency and on-disk size per record.
func replayJournal(r *report, dir string, headers []journal.Header, recsets [][]journal.Record) (time.Duration, error) {
	jdir := filepath.Join(dir, "journal-replay")
	if err := os.MkdirAll(jdir, 0o755); err != nil {
		return 0, err
	}
	defer os.RemoveAll(jdir)
	var lat []float64
	var total time.Duration
	var bytesN, n int64
	for i, recs := range recsets {
		path := filepath.Join(jdir, fmt.Sprintf("%d.journal", i))
		t0 := time.Now()
		j, err := journal.Create(path, headers[i])
		if err != nil {
			return 0, err
		}
		total += time.Since(t0)
		st, err := os.Stat(path)
		if err != nil {
			j.Close()
			return 0, err
		}
		headerSize := st.Size()
		for _, rec := range recs {
			t := time.Now()
			if err := j.Append(rec); err != nil {
				j.Close()
				return 0, err
			}
			d := time.Since(t)
			total += d
			lat = append(lat, float64(d)/1e3)
		}
		if err := j.Close(); err != nil {
			return 0, err
		}
		st, err = os.Stat(path)
		if err != nil {
			return 0, err
		}
		bytesN += st.Size() - headerSize
		n += int64(len(recs))
	}
	if n > 0 {
		r.set("journal.append_us_p50", quantile(lat, 0.5))
		r.set("journal.append_us_p99", quantile(lat, 0.99))
		r.set("journal.bytes_per_record", float64(bytesN)/float64(n))
	}
	return total, nil
}

// probeStatic measures the static pruner: its build cost per app on a fresh
// analyzer, and Classify over every drawn fault of the pruned campaigns.
func probeStatic(r *report, ref *refEnv, runs []serveRun) error {
	var build time.Duration
	for _, a := range serveInjectApps {
		an, err := core.NewAnalyzer(a)
		if err != nil {
			return err
		}
		if _, err := an.CleanTrace(); err != nil {
			return err
		}
		t0 := time.Now()
		if _, err := an.StaticPruner(); err != nil {
			return err
		}
		build += time.Since(t0)
	}
	r.set("irstatic.build_ms", ms(build)/float64(len(serveInjectApps)))

	var classify time.Duration
	drawn, pruned := 0, 0
	for _, run := range runs {
		if !run.spec.StaticPrune || run.spec.Engine != "inject" {
			continue
		}
		an, err := ref.analyzer(run.spec.App)
		if err != nil {
			return err
		}
		p, err := an.StaticPruner()
		if err != nil {
			return err
		}
		c, err := an.NewCampaign(core.WholeProgram(), inject.WithTests(run.spec.Tests), inject.WithSeed(run.spec.Seed))
		if err != nil {
			return err
		}
		faults := c.Faults()
		t0 := time.Now()
		for _, f := range faults {
			if p.Classify(f) != 0 {
				pruned++
			}
		}
		classify += time.Since(t0)
		drawn += len(faults)
	}
	if drawn > 0 {
		r.set("irstatic.classify_ns_per_fault", float64(classify)/float64(drawn))
		r.set("irstatic.prune_frac", float64(pruned)/float64(drawn))
	}
	return nil
}

// probeMPI measures the MPI layer: the clean traced world each analyzer
// records (core.NewMPIAnalyzer), one world-checkpoint forward pass per MPI
// campaign over the rounds its faults need (mpi.SnapshotWorld), and
// restored faulty worlds run to completion (mpi.RestoreWorld).
func probeMPI(r *report, ref *refEnv, runs []serveRun) error {
	var cleanWorld time.Duration
	for _, a := range serveMPIApps {
		t0 := time.Now()
		if _, err := core.NewMPIAnalyzer(a, mpiRanks); err != nil {
			return err
		}
		cleanWorld += time.Since(t0)
	}
	r.set("mpi.clean_world_ms", ms(cleanWorld)/float64(len(serveMPIApps)))

	var snapT, restT time.Duration
	campaigns, worlds := 0, 0
	for _, run := range runs {
		if run.spec.Engine != "mpi" || run.err != nil {
			continue
		}
		ma, err := ref.mpiAnalyzer(run.spec.App, run.spec.Ranks, run.spec.FaultRank)
		if err != nil {
			return err
		}
		c, err := ma.NewCampaign(nil, mpi.WithTests(run.spec.Tests), mpi.WithSeed(run.spec.Seed))
		if err != nil {
			return err
		}
		clean := ma.Clean()
		cuts := clean.Cuts[run.spec.FaultRank]
		rounds := len(cuts)
		for _, cl := range clean.Cuts {
			rounds = min(rounds, len(cl))
		}
		// The rounds a campaign checkpoints: for each fault, the last
		// collective cut at or before its step on the injected rank.
		want := map[int]bool{}
		faults := c.Faults()
		best := make([]int, len(faults))
		for i, f := range faults {
			best[i] = sort.Search(rounds, func(k int) bool { return cuts[k] > f.Step }) - 1
			if best[i] >= 0 {
				want[best[i]] = true
			}
		}
		if len(want) == 0 {
			continue
		}
		var sel []int
		for k := range want {
			sel = append(sel, k)
		}
		sort.Ints(sel)
		cfg := mpi.Config{Ranks: run.spec.Ranks, Seed: apps.DefaultSeed, FaultRank: run.spec.FaultRank,
			ExtraBind: func(m *interp.Machine, _ int) error { return apps.BindMathHosts(m) }}
		t0 := time.Now()
		snaps, err := mpi.SnapshotWorld(context.Background(), ma.Prog, cfg, clean, sel)
		if err != nil {
			return err
		}
		snapT += time.Since(t0)
		campaigns++
		for i, f := range faults {
			if best[i] < 0 || worlds >= 4*campaigns {
				continue
			}
			si := sort.SearchInts(sel, best[i])
			fcfg := cfg
			fcfg.Fault = &f
			fcfg.Replay = clean.Recording
			t0 := time.Now()
			if _, err := mpi.RestoreWorld(ma.Prog, fcfg, snaps[si], nil); err != nil {
				return err
			}
			restT += time.Since(t0)
			worlds++
		}
	}
	if campaigns > 0 {
		r.set("mpi.snapshot_world_ms_per_campaign", ms(snapT)/float64(campaigns))
	}
	if worlds > 0 {
		r.set("mpi.restore_world_ms_per_world", ms(restT)/float64(worlds))
	}
	return nil
}
