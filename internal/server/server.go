// Package server is the campaign service: a long-running HTTP/JSON front
// end over the campaign engines that turns FlipTracker from a CLI
// run-to-completion tool into something a fleet can submit resilience
// campaigns to. A request body is a core.Spec, checked and built exactly as
// the fliptracker CLI checks and builds its flags.
//
//	POST   /campaigns           submit a campaign spec; 201 + status JSON
//	GET    /campaigns           list tracked campaigns
//	GET    /campaigns/{id}        status (state, progress, result)
//	GET    /campaigns/{id}/stream outcome stream as NDJSON (follows)
//	DELETE /campaigns/{id}        cancel a queued or running campaign
//	GET    /healthz             200 ok / 503 draining
//	GET    /stats               expvar counter map
//
// Every campaign runs on the campaign driver, so its delivered stream is
// the deterministic fault-index-ordered stream the in-process engines
// produce — byte-identical for a fixed spec whatever the service's
// parallelism or restart history. A spec's deprecated "shards" and
// "static_prune" are accepted and ignored: plain MPI campaigns always skip
// the faults that cannot fire, inject campaigns never do, and the stream is
// the same either way. With a DataDir the stream is journaled per campaign: kill
// the server mid-campaign, start a new one, re-submit the same id and spec,
// and the campaign resumes from its last committed outcome (replayed
// records stream again, the remainder is computed) to the identical final
// result.
//
// Concurrent campaigns multiplex over shared per-application analyzers —
// one clean trace and clean index per app, and per world shape a clean
// world and the injected rank's clean SID log for MPI, built once and
// cached (core.Analyzers) —
// while MaxRunning bounds concurrently
// executing campaigns and MaxCampaigns bounds tracked ones, keeping the
// service's memory budget flat. Campaigns run untraced (outcome records
// only, never per-fault traces), so a tracked campaign's footprint is its
// record slice.
package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"net/http"
	"path/filepath"
	"sync"

	"fliptracker/internal/core"
	"fliptracker/internal/inject"
	"fliptracker/internal/journal"
	"fliptracker/internal/mpi"
)

// Options shapes a Server.
type Options struct {
	// DataDir, when non-empty, makes campaigns durable: each campaign's
	// merged stream is journaled at DataDir/<id>.journal, and re-submitting
	// an id with the same spec after a crash or restart resumes from the
	// last committed outcome. Empty disables durability.
	DataDir string
	// MaxRunning bounds concurrently executing campaigns (default 2).
	// Queued campaigns wait their turn in submission order.
	MaxRunning int
	// MaxCampaigns bounds tracked campaigns, finished ones included
	// (default 64). At the bound a new POST evicts the oldest finished
	// campaign (its journal under DataDir stays on disk); when every
	// tracked campaign is still queued or running, POST refuses with 503.
	MaxCampaigns int
}

// maxSpecBytes bounds a POST body; a larger one is refused with 413. The
// spec's own bounds (core.MaxTests, ...) answer 400.
const maxSpecBytes = 1 << 20

// Spec is the POST /campaigns request body (core.Spec): everything that
// determines a campaign's outcome stream, plus the result-invariant
// parallelism. Unknown fields are refused with 400.
type Spec = core.Spec

// PopulationSpec selects an inject fault population by kind.
type PopulationSpec = core.PopulationSpec

// EarlyStopSpec carries the Agresti–Coull stopping rule parameters.
type EarlyStopSpec = core.EarlyStopSpec

// Campaign states.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// campaign is one tracked campaign: its spec, lifecycle state, and the
// merged outcome records accumulated so far. cond signals record appends
// and state transitions to NDJSON followers.
type campaign struct {
	id     string
	spec   Spec
	cancel context.CancelFunc

	mu       sync.Mutex
	cond     *sync.Cond
	state    string
	errMsg   string
	recs     []journal.Record
	result   inject.Result
	finished bool
}

func newCampaign(id string, spec Spec, cancel context.CancelFunc) *campaign {
	c := &campaign{id: id, spec: spec, cancel: cancel, state: StateQueued}
	c.cond = sync.NewCond(&c.mu)
	return c
}

func (c *campaign) setState(state string) {
	c.mu.Lock()
	c.state = state
	c.mu.Unlock()
	c.cond.Broadcast()
}

func (c *campaign) append(rec journal.Record) {
	c.mu.Lock()
	c.recs = append(c.recs, rec)
	c.mu.Unlock()
	c.cond.Broadcast()
}

func (c *campaign) finish(state string, res inject.Result, err error) {
	c.mu.Lock()
	c.state = state
	c.result = res
	if err != nil {
		c.errMsg = err.Error()
	}
	c.finished = true
	c.mu.Unlock()
	c.cond.Broadcast()
}

// Server is the campaign service. Build it with New, mount it as an
// http.Handler, and Drain it on shutdown.
type Server struct {
	opts Options
	mux  *http.ServeMux
	sem  chan struct{}
	vars *expvar.Map

	mu        sync.Mutex
	campaigns map[string]*campaign
	order     []string
	draining  bool
	active    sync.WaitGroup

	analyzers core.Analyzers
}

// New builds a campaign service.
func New(opts Options) *Server {
	if opts.MaxRunning <= 0 {
		opts.MaxRunning = 2
	}
	if opts.MaxCampaigns <= 0 {
		opts.MaxCampaigns = 64
	}
	s := &Server{
		opts:      opts,
		mux:       http.NewServeMux(),
		sem:       make(chan struct{}, opts.MaxRunning),
		vars:      new(expvar.Map).Init(),
		campaigns: make(map[string]*campaign),
	}
	s.vars.Set("analyzers_built", expvar.Func(func() any { return s.analyzers.Built() }))
	s.mux.HandleFunc("POST /campaigns", s.handleCreate)
	s.mux.HandleFunc("GET /campaigns", s.handleList)
	s.mux.HandleFunc("GET /campaigns/{id}", s.handleGet)
	s.mux.HandleFunc("GET /campaigns/{id}/stream", s.handleStream)
	s.mux.HandleFunc("DELETE /campaigns/{id}", s.handleDelete)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Drain stops accepting campaigns (healthz turns 503) and waits for running
// ones to finish. When ctx expires first, the stragglers are cancelled —
// safe under a DataDir, where their journals resume them later — and Drain
// returns ctx.Err() after they exit.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.active.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for _, c := range s.campaigns { //ftlint:ok cancelling every campaign; order immaterial
			c.cancel()
		}
		s.mu.Unlock()
		s.active.Wait()
		return ctx.Err()
	}
}

// ---- request handling ----

type statusJSON struct {
	ID     string      `json:"id"`
	App    string      `json:"app"`
	Engine string      `json:"engine"`
	State  string      `json:"state"`
	Error  string      `json:"error,omitempty"`
	Tests  int         `json:"tests"`
	Done   int         `json:"done"`
	Result *resultJSON `json:"result,omitempty"`
}

type resultJSON struct {
	Tests       int     `json:"tests"`
	Success     int     `json:"success"`
	Failed      int     `json:"failed"`
	Crashed     int     `json:"crashed"`
	NotApplied  int     `json:"not_applied"`
	SuccessRate float64 `json:"success_rate"`
}

func (c *campaign) status() statusJSON {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := statusJSON{
		ID:     c.id,
		App:    c.spec.App,
		Engine: c.spec.Engine,
		State:  c.state,
		Error:  c.errMsg,
		Tests:  c.spec.Tests,
		Done:   len(c.recs),
	}
	if c.finished && c.state == StateDone {
		st.Result = &resultJSON{
			Tests: c.result.Tests, Success: c.result.Success, Failed: c.result.Failed,
			Crashed: c.result.Crashed, NotApplied: c.result.NotApplied,
			SuccessRate: c.result.SuccessRate(),
		}
	}
	return st
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

type errorJSON struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorJSON{Error: fmt.Sprintf(format, args...)})
}

func validID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
		default:
			return false
		}
	}
	return true
}

func genID() string {
	var b [8]byte
	rand.Read(b[:])
	return "c" + hex.EncodeToString(b[:])
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		code := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		writeError(w, code, "bad spec: %v", err)
		return
	}
	if err := spec.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, "bad spec: %v", err)
		return
	}
	if spec.ID == "" {
		spec.ID = genID()
	}
	if !validID(spec.ID) {
		writeError(w, http.StatusBadRequest, "bad spec: id must be 1-64 chars of [a-zA-Z0-9._-]")
		return
	}

	ctx, cancel := context.WithCancel(context.Background())
	c := newCampaign(spec.ID, spec, cancel)

	s.mu.Lock()
	code, msg := 0, ""
	switch {
	case s.draining:
		code, msg = http.StatusServiceUnavailable, "draining"
	case s.campaigns[spec.ID] != nil:
		code, msg = http.StatusConflict, fmt.Sprintf("campaign %q already exists", spec.ID)
	case len(s.campaigns) >= s.opts.MaxCampaigns && !s.evictLocked():
		code, msg = http.StatusServiceUnavailable, fmt.Sprintf("campaign capacity (%d) reached", s.opts.MaxCampaigns)
	}
	if code != 0 {
		s.mu.Unlock()
		cancel()
		writeError(w, code, "%s", msg)
		return
	}
	s.campaigns[spec.ID] = c
	s.order = append(s.order, spec.ID)
	s.active.Add(1)
	s.mu.Unlock()

	s.vars.Add("campaigns_submitted", 1)
	go s.runCampaign(ctx, c)
	writeJSON(w, http.StatusCreated, c.status())
}

// evictLocked forgets the oldest finished (done, failed or cancelled)
// campaign to make room for a new one, walking campaigns in submission
// order; it reports false when every tracked campaign is queued or running.
// The evicted campaign's journal stays on disk, so re-submitting its id and
// spec to a durable server replays it. Callers hold s.mu.
func (s *Server) evictLocked() bool {
	for i, id := range s.order {
		c := s.campaigns[id]
		c.mu.Lock()
		finished := c.finished
		c.mu.Unlock()
		if finished {
			delete(s.campaigns, id)
			s.order = append(s.order[:i], s.order[i+1:]...)
			return true
		}
	}
	return false
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	out := make([]statusJSON, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.campaigns[id].status())
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) lookup(r *http.Request) (*campaign, bool) {
	s.mu.Lock()
	c, ok := s.campaigns[r.PathValue("id")]
	s.mu.Unlock()
	return c, ok
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	c, ok := s.lookup(r)
	if !ok {
		writeError(w, http.StatusNotFound, "no campaign %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, c.status())
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	c, ok := s.lookup(r)
	if !ok {
		writeError(w, http.StatusNotFound, "no campaign %q", r.PathValue("id"))
		return
	}
	c.cancel()
	s.vars.Add("campaigns_cancel_requests", 1)
	writeJSON(w, http.StatusAccepted, c.status())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, s.vars.String())
}

// recJSON is one NDJSON stream line: the journal representation of one
// merged outcome. Propagation fields appear for MPI campaigns only.
type recJSON struct {
	Index     uint64    `json:"index"`
	Fault     faultJSON `json:"fault"`
	Outcome   string    `json:"outcome"`
	PropClass string    `json:"prop_class,omitempty"`
	PropRanks []int     `json:"prop_ranks,omitempty"`
}

type faultJSON struct {
	Step uint64 `json:"step"`
	Bit  uint8  `json:"bit"`
	Kind string `json:"kind"`
	Addr int64  `json:"addr,omitempty"`
}

func renderRec(engine string, rec journal.Record) recJSON {
	out := recJSON{
		Index: rec.Index,
		Fault: faultJSON{
			Step: rec.Fault.Step,
			Bit:  rec.Fault.Bit,
			Kind: rec.Fault.Kind.String(),
			Addr: rec.Fault.Addr,
		},
		Outcome: inject.Outcome(rec.Outcome).String(),
	}
	if engine == "mpi" {
		out.PropClass = mpi.PropagationClass(rec.PropClass).String()
		out.PropRanks = rec.PropRanks
	}
	return out
}

// streamEndJSON is the final NDJSON line: terminal state and, for a done
// campaign, the aggregate result.
type streamEndJSON struct {
	Done   bool        `json:"done"`
	State  string      `json:"state"`
	Error  string      `json:"error,omitempty"`
	Result *resultJSON `json:"result,omitempty"`
}

func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	c, ok := s.lookup(r)
	if !ok {
		writeError(w, http.StatusNotFound, "no campaign %q", r.PathValue("id"))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	// A disconnecting client must unblock the cond wait below.
	stop := context.AfterFunc(r.Context(), func() { c.cond.Broadcast() })
	defer stop()

	i := 0
	for {
		c.mu.Lock()
		for i >= len(c.recs) && !c.finished && r.Context().Err() == nil {
			c.cond.Wait()
		}
		recs := c.recs[i:]
		i = len(c.recs)
		fin := c.finished && i == len(c.recs)
		c.mu.Unlock()
		if r.Context().Err() != nil {
			return
		}
		for _, rec := range recs {
			if err := enc.Encode(renderRec(c.spec.Engine, rec)); err != nil {
				return
			}
			s.vars.Add("records_streamed", 1)
		}
		if flusher != nil {
			flusher.Flush()
		}
		if fin {
			status := c.status()
			end := streamEndJSON{Done: true, State: status.State, Error: status.Error, Result: status.Result}
			enc.Encode(end)
			if flusher != nil {
				flusher.Flush()
			}
			return
		}
	}
}

// ---- campaign execution ----

func (s *Server) runCampaign(ctx context.Context, c *campaign) {
	defer s.active.Done()
	defer c.cancel()

	// Bound concurrently running campaigns; queued ones wait here.
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		c.finish(StateCancelled, inject.Result{}, nil)
		s.vars.Add("campaigns_cancelled", 1)
		return
	}
	defer func() { <-s.sem }()

	c.setState(StateRunning)
	s.vars.Add("campaigns_started", 1)
	journal := ""
	if s.opts.DataDir != "" {
		journal = filepath.Join(s.opts.DataDir, c.spec.ID+".journal")
	}
	runner, err := c.spec.Build(&s.analyzers, journal)
	if err != nil {
		c.finish(StateFailed, inject.Result{}, err)
		s.vars.Add("campaigns_failed", 1)
		return
	}

	var res inject.Result
	var runErr error
	for rec, err := range runner.Records(ctx) {
		if err != nil {
			runErr = err
			break
		}
		res.Count(inject.Outcome(rec.Outcome))
		c.append(rec)
	}
	switch {
	case runErr == nil:
		c.finish(StateDone, res, nil)
		s.vars.Add("campaigns_done", 1)
	case errors.Is(runErr, context.Canceled):
		c.finish(StateCancelled, res, nil)
		s.vars.Add("campaigns_cancelled", 1)
	default:
		c.finish(StateFailed, res, runErr)
		s.vars.Add("campaigns_failed", 1)
	}
}
