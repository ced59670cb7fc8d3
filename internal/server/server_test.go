package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"fliptracker/internal/core"
	"fliptracker/internal/inject"
)

func postSpec(t *testing.T, ts *httptest.Server, spec Spec) (*http.Response, statusJSON) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statusJSON
	json.NewDecoder(resp.Body).Decode(&st)
	return resp, st
}

func waitDone(t *testing.T, ts *httptest.Server, id string) statusJSON {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/campaigns/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st statusJSON
		json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		switch st.State {
		case StateDone, StateFailed, StateCancelled:
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("campaign did not finish in time")
	return statusJSON{}
}

// streamLines fetches /campaigns/{id}/stream and returns the record lines
// (the trailing done line is parsed separately).
func streamLines(t *testing.T, ts *httptest.Server, id string) ([]string, streamEndJSON) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/campaigns/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("stream status %d: %s", resp.StatusCode, b)
	}
	var lines []string
	var end streamEndJSON
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.Contains(line, `"done":true`) {
			if err := json.Unmarshal([]byte(line), &end); err != nil {
				t.Fatalf("bad end line %q: %v", line, err)
			}
			continue
		}
		lines = append(lines, line)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines, end
}

func digestLines(lines []string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(strings.Join(lines, "\n")))
	return h.Sum64()
}

const (
	testApp   = "kmeans"
	testSeed  = 20181111
	testTests = 24
)

func injectSpec(id string, extra func(*Spec)) Spec {
	s := Spec{ID: id, App: testApp, Engine: "inject", Seed: testSeed, Tests: testTests}
	if extra != nil {
		extra(&s)
	}
	return s
}

// TestServerCampaignMatchesEngine: a served inject campaign — at three
// parallelism settings, one spec also carrying the deprecated, ignored
// shard count and one the deprecated, ignored static_prune — streams the NDJSON-rendered equivalent of the engine's own
// stream and reports the engine's Result.
func TestServerCampaignMatchesEngine(t *testing.T) {
	wantRes := engineResult(t)
	ts := httptest.NewServer(New(Options{}))
	defer ts.Close()

	var digests []uint64
	for i, tune := range []func(*Spec){
		func(s *Spec) { s.Parallelism = 1 },
		func(s *Spec) { s.Shards = 4; s.Parallelism = 2 },
		func(s *Spec) { s.StaticPrune = true; s.Parallelism = 3 },
	} {
		id := fmt.Sprintf("m%d", i)
		resp, st := postSpec(t, ts, injectSpec(id, tune))
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("POST status %d (%+v)", resp.StatusCode, st)
		}
		// Follow the stream while the campaign runs (exercises the NDJSON
		// follower path), then confirm the terminal status.
		lines, end := streamLines(t, ts, id)
		if len(lines) != testTests {
			t.Fatalf("%s: streamed %d records, want %d", id, len(lines), testTests)
		}
		if !end.Done || end.State != StateDone || end.Result == nil {
			t.Fatalf("%s: end line %+v", id, end)
		}
		if end.Result.Tests != wantRes.Tests || end.Result.Success != wantRes.Success ||
			end.Result.Crashed != wantRes.Crashed {
			t.Errorf("%s: result %+v, engine %+v", id, *end.Result, wantRes)
		}
		digests = append(digests, digestLines(lines))
		st = waitDone(t, ts, id)
		if st.State != StateDone || st.Done != testTests {
			t.Errorf("%s: final status %+v", id, st)
		}
	}
	for i := 1; i < len(digests); i++ {
		if digests[i] != digests[0] {
			t.Errorf("campaign %d stream digest %#x, campaign 0 %#x — serving is not parallelism-invariant", i, digests[i], digests[0])
		}
	}
}

func engineResult(t *testing.T) inject.Result {
	t.Helper()
	an, err := core.NewAnalyzer(testApp)
	if err != nil {
		t.Fatal(err)
	}
	spec := injectSpec("", nil)
	res, err := an.Campaign(context.Background(), core.WholeProgram(), spec.Options()...)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestServerMPICampaign: the MPI engine serves world campaigns with
// propagation fields in the stream.
func TestServerMPICampaign(t *testing.T) {
	ts := httptest.NewServer(New(Options{}))
	defer ts.Close()
	spec := Spec{ID: "w1", App: "is", Engine: "mpi", Seed: testSeed, Tests: 4, Ranks: 3, FaultRank: 1, Parallelism: 2}
	resp, st := postSpec(t, ts, spec)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST status %d (%+v)", resp.StatusCode, st)
	}
	lines, end := streamLines(t, ts, "w1")
	if len(lines) != 4 {
		t.Fatalf("streamed %d records, want 4", len(lines))
	}
	if !strings.Contains(lines[0], `"prop_class"`) {
		t.Errorf("mpi stream line lacks propagation: %s", lines[0])
	}
	if !end.Done || end.State != StateDone {
		t.Fatalf("end line %+v", end)
	}
}

// TestServerValidation covers the 4xx paths: malformed body, bad specs,
// duplicate ids, unknown campaigns.
func TestServerValidation(t *testing.T) {
	ts := httptest.NewServer(New(Options{}))
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/campaigns", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status %d, want 400", resp.StatusCode)
	}

	// A body past maxSpecBytes → 413, before any of it is decoded as a spec.
	big := `{"app":"` + strings.Repeat("x", maxSpecBytes) + `","engine":"inject","tests":5}`
	resp, err = http.Post(ts.URL+"/campaigns", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413", resp.StatusCode)
	}

	// Unknown fields → 400 naming the field: a retired knob and a typo
	// must not be silently ignored.
	for field, body := range map[string]string{
		"scheduler": `{"app":"kmeans","engine":"inject","tests":5,"scheduler":"direct"}`,
		"shard":     `{"app":"kmeans","engine":"inject","tests":5,"shard":4}`,
	} {
		resp, err := http.Post(ts.URL+"/campaigns", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var e errorJSON
		json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, `"`+field+`"`) {
			t.Errorf("unknown field %q: status %d, error %q; want 400 naming the field", field, resp.StatusCode, e.Error)
		}
	}

	for name, spec := range map[string]Spec{
		"no app":       {Engine: "inject", Tests: 5},
		"bad engine":   {App: testApp, Engine: "spark", Tests: 5},
		"no tests":     {App: testApp, Engine: "inject"},
		"mpi no ranks": {App: "is", Engine: "mpi", Tests: 5},
		"bad rank":     {App: "is", Engine: "mpi", Tests: 5, Ranks: 3, FaultRank: 3},
		"mpi pop":      {App: "is", Engine: "mpi", Tests: 5, Ranks: 3, Population: &PopulationSpec{Kind: "hybrid"}},
		"bad pop":      {App: testApp, Engine: "inject", Tests: 5, Population: &PopulationSpec{Kind: "everything"}},
		"bad id":       {ID: "a/b", App: testApp, Engine: "inject", Tests: 5},
		"bad stop":     {App: testApp, Engine: "inject", Tests: 5, EarlyStop: &EarlyStopSpec{Confidence: 2, Margin: 0.1}},
		"huge tests":   {App: testApp, Engine: "inject", Tests: core.MaxTests + 1},
		// A hostile spec must not size the service's memory or goroutines:
		// every cached analyzer needs a registered app, and each count has a
		// fixed bound. Values just past the bounds keep a missed check cheap.
		"unknown app":      {App: "nosuchapp", Engine: "inject", Tests: 5},
		"huge ranks":       {App: "is", Engine: "mpi", Tests: 5, Ranks: core.MaxRanks + 1},
		"huge shards":      {App: testApp, Engine: "inject", Tests: 5, Shards: core.MaxShards + 1},
		"huge parallelism": {App: testApp, Engine: "inject", Tests: 5, Parallelism: core.MaxParallelism + 1},
	} {
		resp, _ := postSpec(t, ts, spec)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	// JSON cannot carry NaN, so a NaN stopping rule reaches only Validate
	// (through the library or the CLI); it must not pass the (0, 1) bounds.
	for name, es := range map[string]EarlyStopSpec{
		"NaN confidence": {Confidence: math.NaN(), Margin: 0.03},
		"NaN margin":     {Confidence: 0.95, Margin: math.NaN()},
	} {
		spec := injectSpec("", func(s *Spec) { s.EarlyStop = &es })
		if err := spec.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, es)
		}
	}

	// Duplicate id → 409.
	if resp, _ := postSpec(t, ts, injectSpec("dup", nil)); resp.StatusCode != http.StatusCreated {
		t.Fatalf("first dup POST status %d", resp.StatusCode)
	}
	if resp, _ := postSpec(t, ts, injectSpec("dup", nil)); resp.StatusCode != http.StatusConflict {
		t.Errorf("duplicate id: status %d, want 409", resp.StatusCode)
	}
	waitDone(t, ts, "dup")

	// Unknown id → 404 on status, stream, delete.
	for _, req := range []func() (*http.Response, error){
		func() (*http.Response, error) { return http.Get(ts.URL + "/campaigns/ghost") },
		func() (*http.Response, error) { return http.Get(ts.URL + "/campaigns/ghost/stream") },
		func() (*http.Response, error) {
			req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/campaigns/ghost", nil)
			return http.DefaultClient.Do(req)
		},
	} {
		resp, err := req()
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("ghost campaign: status %d, want 404", resp.StatusCode)
		}
	}

	// A region the app lacks passes validation and fails asynchronously,
	// when the campaign is built.
	noRegion := injectSpec("noregion", func(s *Spec) { s.Population = &PopulationSpec{Kind: "region-internal", Region: "nosuch"} })
	if resp, _ := postSpec(t, ts, noRegion); resp.StatusCode != http.StatusCreated {
		t.Fatalf("unknown region POST status %d", resp.StatusCode)
	}
	if st := waitDone(t, ts, "noregion"); st.State != StateFailed || st.Error == "" {
		t.Errorf("unknown region final status %+v, want failed with error", st)
	}
}

// TestServerCancel: DELETE cancels a running campaign; its state turns
// cancelled and the stream terminates with that state.
func TestServerCancel(t *testing.T) {
	ts := httptest.NewServer(New(Options{MaxRunning: 1}))
	defer ts.Close()
	// A large sequential campaign so the cancel lands mid-run.
	resp, _ := postSpec(t, ts, injectSpec("big", func(s *Spec) { s.Tests = 5000; s.Parallelism = 1 }))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST status %d", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/campaigns/big", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE status %d, want 202", dresp.StatusCode)
	}
	if st := waitDone(t, ts, "big"); st.State != StateCancelled {
		t.Errorf("cancelled campaign final state %q", st.State)
	}
}

// TestServerResume: a durable server killed mid-campaign (here: campaign
// cancelled, server discarded) resumes the campaign on a fresh server over
// the same DataDir — same id, same spec — and the final stream and result
// are identical to an uninterrupted run's.
func TestServerResume(t *testing.T) {
	dir := t.TempDir()
	spec := injectSpec("r1", func(s *Spec) { s.Parallelism = 2 })

	// Uninterrupted reference on its own durable server.
	refTS := httptest.NewServer(New(Options{DataDir: t.TempDir()}))
	resp, _ := postSpec(t, refTS, spec)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("reference POST status %d", resp.StatusCode)
	}
	refLines, refEnd := streamLines(t, refTS, "r1")
	refTS.Close()
	if refEnd.State != StateDone {
		t.Fatalf("reference end %+v", refEnd)
	}

	// First server: cancel mid-run, then discard the server ("kill").
	ts1 := httptest.NewServer(New(Options{DataDir: dir, MaxRunning: 1}))
	slow := spec
	resp, _ = postSpec(t, ts1, slow)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST status %d", resp.StatusCode)
	}
	// Let some records commit, then cancel.
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		r, err := http.Get(ts1.URL + "/campaigns/r1")
		if err != nil {
			t.Fatal(err)
		}
		var st statusJSON
		json.NewDecoder(r.Body).Decode(&st)
		r.Body.Close()
		if st.Done >= 3 || st.State == StateDone {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts1.URL+"/campaigns/r1", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	waitDone(t, ts1, "r1")
	ts1.Close()

	// Second server over the same DataDir: same id + spec resumes the
	// journal; the full delivered stream matches the reference.
	ts2 := httptest.NewServer(New(Options{DataDir: dir}))
	defer ts2.Close()
	resp, _ = postSpec(t, ts2, spec)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("resume POST status %d", resp.StatusCode)
	}
	lines, end := streamLines(t, ts2, "r1")
	if end.State != StateDone {
		t.Fatalf("resumed end %+v", end)
	}
	if digestLines(lines) != digestLines(refLines) {
		t.Errorf("resumed stream digest %#x, reference %#x", digestLines(lines), digestLines(refLines))
	}
	if *end.Result != *refEnd.Result {
		t.Errorf("resumed result %+v, reference %+v", *end.Result, *refEnd.Result)
	}

	// A mismatched spec against the same id's journal fails with a
	// mismatch error instead of corrupting it.
	ts3 := httptest.NewServer(New(Options{DataDir: dir}))
	defer ts3.Close()
	bad := spec
	bad.Seed = 7
	resp, _ = postSpec(t, ts3, bad)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("mismatch POST status %d", resp.StatusCode)
	}
	if st := waitDone(t, ts3, "r1"); st.State != StateFailed || !strings.Contains(st.Error, "journal") {
		t.Errorf("mismatched resume final status %+v, want failed journal mismatch", st)
	}
}

// TestServerHealthAndDrain: healthz flips to 503 once draining, new
// submissions are refused, and Drain returns after running campaigns end.
func TestServerHealthAndDrain(t *testing.T) {
	srv := New(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d, want 200", resp.StatusCode)
	}

	// Run one campaign to completion so stats have content.
	if resp, _ := postSpec(t, ts, injectSpec("h1", nil)); resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST status %d", resp.StatusCode)
	}
	waitDone(t, ts, "h1")

	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	stats, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var counters map[string]int64
	if err := json.Unmarshal(stats, &counters); err != nil {
		t.Fatalf("stats not JSON: %v\n%s", err, stats)
	}
	if counters["campaigns_done"] < 1 || counters["analyzers_built"] < 1 {
		t.Errorf("stats %v missing campaign/analyzer counters", counters)
	}

	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining healthz status %d, want 503", resp.StatusCode)
	}
	if resp, _ := postSpec(t, ts, injectSpec("h2", nil)); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining POST status %d, want 503", resp.StatusCode)
	}
}

// TestServerCapacity: at MaxCampaigns with every tracked campaign still
// queued or running, POST refuses with 503. The first campaign is a long
// sequential one, held running until the refusal is observed and then
// cancelled.
func TestServerCapacity(t *testing.T) {
	ts := httptest.NewServer(New(Options{MaxCampaigns: 1}))
	defer ts.Close()

	long := injectSpec("one", func(s *Spec) { s.Tests = 20000; s.Parallelism = 1 })
	if resp, _ := postSpec(t, ts, long); resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST status %d", resp.StatusCode)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		resp, err := http.Get(ts.URL + "/campaigns/one")
		if err != nil {
			t.Fatal(err)
		}
		var st statusJSON
		json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if st.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("first campaign %q, never running", st.State)
		}
	}
	if resp, _ := postSpec(t, ts, injectSpec("two", nil)); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("over-capacity POST status %d, want 503", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/campaigns/one", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st := waitDone(t, ts, "one"); st.State != StateCancelled {
		t.Errorf("held campaign final state %q (%s), want cancelled", st.State, st.Error)
	}
}

// TestServerEvictsFinished: at MaxCampaigns, a POST evicts the oldest
// finished campaign — the new campaign is accepted, the evicted id answers
// 404, and younger campaigns stay tracked.
func TestServerEvictsFinished(t *testing.T) {
	ts := httptest.NewServer(New(Options{MaxCampaigns: 2}))
	defer ts.Close()
	for _, id := range []string{"one", "two"} {
		if resp, _ := postSpec(t, ts, injectSpec(id, nil)); resp.StatusCode != http.StatusCreated {
			t.Fatalf("POST %s status %d", id, resp.StatusCode)
		}
		waitDone(t, ts, id)
	}
	if resp, _ := postSpec(t, ts, injectSpec("three", nil)); resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST past capacity with finished campaigns: status %d, want 201", resp.StatusCode)
	}
	for id, want := range map[string]int{"one": http.StatusNotFound, "two": http.StatusOK} {
		resp, err := http.Get(ts.URL + "/campaigns/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s: status %d, want %d", id, resp.StatusCode, want)
		}
	}
	waitDone(t, ts, "three")
}
