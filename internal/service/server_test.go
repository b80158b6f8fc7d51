package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tcptrim/internal/experiment"
)

// blockStarted signals that the test-block runner is executing; the
// runner then parks on its Context, exercising cancellation paths.
var blockStarted = make(chan struct{}, 64)

func init() {
	err := experiment.Register(experiment.RunnerInfo{
		ID:          "test-block",
		Description: "test runner that blocks until canceled",
	}, func(opts experiment.Options, w io.Writer) error {
		blockStarted <- struct{}{}
		<-opts.Context.Done()
		return opts.Context.Err()
	})
	if err != nil {
		panic(err)
	}
	// One long cell and nothing else: cancellation has to reach inside it.
	err = experiment.Register(experiment.RunnerInfo{
		ID:          "test-million-cell",
		Description: "test runner: one fig8million-smoke cell",
	}, func(opts experiment.Options, w io.Writer) error {
		res, err := experiment.RunMillion([]experiment.Protocol{experiment.ProtoTRIM}, experiment.MillionSmoke, opts)
		if err != nil {
			return err
		}
		return res.WriteTables(w)
	})
	if err != nil {
		panic(err)
	}
	// Two overlapping concurrency slices: wide's first three cells are
	// exactly narrow's cells, so a narrow-then-wide submission exercises
	// cross-runner cell reuse through the shared store.
	for id, maxSPT := range map[string]int{"test-conc-narrow": 3, "test-conc-wide": 4} {
		maxSPT := maxSPT
		err := experiment.Register(experiment.RunnerInfo{
			ID:          id,
			Description: "test slice of the concurrency sweep",
		}, func(opts experiment.Options, w io.Writer) error {
			res, err := experiment.RunConcurrency(experiment.ProtoTRIM, []int{2}, maxSPT, opts)
			if err != nil {
				return err
			}
			return res.WriteTables(w)
		})
		if err != nil {
			panic(err)
		}
	}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.CodeVersion == "" {
		cfg.CodeVersion = "test-v1"
	}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc)
	t.Cleanup(ts.Close)
	return svc, ts
}

// jobCounts reads how many jobs srv's table holds and how many of them
// have ended.
func jobCounts(srv *Server) (jobs, ended int) {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	return srv.jobs.counts()
}

func submit(t *testing.T, ts *httptest.Server, spec RunSpec) Job {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: status %d: %s", resp.StatusCode, raw)
	}
	var job Job
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	return job
}

func getJob(t *testing.T, ts *httptest.Server, id string) Job {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/runs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var job Job
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	return job
}

func waitState(t *testing.T, ts *httptest.Server, id, want string) Job {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		job := getJob(t, ts, id)
		if job.State == want {
			return job
		}
		if job.State == StateFailed && want != StateFailed {
			t.Fatalf("run %s failed: %s", id, job.Error)
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("run %s never reached %s", id, want)
	return Job{}
}

// readEvents drains the run's SSE stream until it ends, returning the
// decoded event payloads.
func readEvents(t *testing.T, ts *httptest.Server, id string) []map[string]any {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/runs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content-type = %q", ct)
	}
	var events []map[string]any
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev map[string]any
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad event %q: %v", line, err)
		}
		events = append(events, ev)
	}
	return events
}

func kinds(events []map[string]any) map[string]int {
	n := map[string]int{}
	for _, ev := range events {
		if k, ok := ev["kind"].(string); ok {
			n[k]++
		}
	}
	return n
}

func TestSubmitRejectsBadSpecs(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, body := range []string{
		`{"runner":"nope"}`,
		`{"runner":"fig4","reps":-1}`,
		`{"runner":"fig4","bogus":true}`, // unknown fields are typos, not extensions
		`{`,
	} {
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("submit %s: status %d, want 400", body, resp.StatusCode)
		}
	}
}

// TestSubmitRejectsShards: a spec has no shard count, and a body that
// carries one is refused as an unknown field — never run with the field
// silently dropped.
func TestSubmitRejectsShards(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(`{"runner":"fig4","shards":2}`))
	if err != nil {
		t.Fatal(err)
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Errorf("400 body is not JSON: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body["error"], `unknown field "shards"`) {
		t.Errorf("spec with shards: status %d body %v, want 400 naming the unknown field", resp.StatusCode, body)
	}
	if jobs, _ := jobCounts(srv); jobs != 0 {
		t.Errorf("job table holds %d runs after a refused submit, want 0", jobs)
	}
}

// TestSubmitRejectsOversizedSpec: a body past the 1 MiB bound is refused
// with 413 and a JSON error before a job exists; a normal submit on the
// same server is unaffected.
func TestSubmitRejectsOversizedSpec(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1})
	huge := `{"runner":"` + strings.Repeat("x", maxSpecBytes) + `"}`
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Errorf("413 body is not JSON: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge || body["error"] == "" {
		t.Fatalf("oversized spec: status %d body %v, want 413 with an error", resp.StatusCode, body)
	}
	if jobs, _ := jobCounts(srv); jobs != 0 {
		t.Errorf("job table holds %d runs after a refused submit, want 0", jobs)
	}

	job := submit(t, ts, RunSpec{Runner: "eq22"})
	waitState(t, ts, job.ID, StateDone)
}

func TestRunnersEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/v1/runners")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got struct {
		Runners []experiment.RunnerInfo `json:"runners"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, info := range got.Runners {
		if info.ID == "fig4" {
			found = true
			if info.Description == "" {
				t.Error("fig4 has no description")
			}
			if len(info.Options) == 0 {
				t.Error("fig4 declares no options")
			}
		}
	}
	if !found {
		t.Error("fig4 missing from /v1/runners")
	}
}

// TestRunStreamCache is the core tentpole path: submit a real run, watch
// its SSE stream, check the result is byte-identical to a direct
// experiment.Run of the same options, then resubmit and check the cache
// answers without a second simulation.
func TestRunStreamCache(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 2})
	spec := RunSpec{Runner: "fig4"}
	job := submit(t, ts, spec)
	if job.Cached {
		t.Fatal("first submission reported cached")
	}
	waitState(t, ts, job.ID, StateDone)

	// The SSE stream (read from replay, after the fact) carries live
	// metrics and ends with the terminal event.
	events := readEvents(t, ts, job.ID)
	n := kinds(events)
	if n["sample"] == 0 {
		t.Errorf("no sample events streamed (kinds: %v)", n)
	}
	if n["fct"] == 0 || n["retrans"] == 0 {
		t.Errorf("missing fct/retrans milestones (kinds: %v)", n)
	}
	if n["done"] != 1 || events[len(events)-1]["kind"] != "done" {
		t.Errorf("stream did not end with one done event (kinds: %v)", n)
	}

	// Byte-identical to the batch path: an armed Progress hook and a
	// Context may not perturb the simulation.
	var want bytes.Buffer
	if err := experiment.Run(spec.Runner, spec.Options(), &want); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/runs/" + job.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("service result differs from direct run (%d vs %d bytes)", len(got), want.Len())
	}

	// Resubmit: cache hit, no new simulation, same bytes, stream closes
	// immediately with done.
	simsBefore := svc.simulations.Load()
	job2 := submit(t, ts, spec)
	if !job2.Cached {
		t.Fatal("resubmission not served from cache")
	}
	if got := waitState(t, ts, job2.ID, StateDone); !got.Cached {
		t.Fatal("cached job lost its flag")
	}
	if sims := svc.simulations.Load(); sims != simsBefore {
		t.Fatalf("cache hit ran a simulation (%d -> %d)", simsBefore, sims)
	}
	resp2, err := http.Get(ts.URL + "/v1/runs/" + job2.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	got2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if !bytes.Equal(got2, want.Bytes()) {
		t.Fatal("cached result differs from direct run")
	}
	ev2 := kinds(readEvents(t, ts, job2.ID))
	if ev2["done"] != 1 {
		t.Errorf("cached run's stream has no done event: %v", ev2)
	}

	// A different seed is a different address.
	job3 := submit(t, ts, RunSpec{Runner: "fig4", Seed: 7})
	if job3.Cached {
		t.Fatal("different seed hit the cache")
	}
	resp4, err := http.DefaultClient.Do(mustReq(t, http.MethodDelete, ts.URL+"/v1/runs/"+job3.ID))
	if err != nil {
		t.Fatal(err)
	}
	resp4.Body.Close()
}

// TestStoredEventsOneWrite: a run answered from the store has a closed
// stream, its replay alone, so /events sends it unflushed — one reply
// with a Content-Length, not chunked — and the body is unchanged.
func TestStoredEventsOneWrite(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	spec := RunSpec{Runner: "fig4"}
	waitState(t, ts, submit(t, ts, spec).ID, StateDone)
	job := submit(t, ts, spec)
	if !job.Cached {
		t.Fatal("resubmission not served from the store")
	}
	resp, err := http.Get(ts.URL + "/v1/runs/" + job.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	want := "data: " + string(doneEvent) + "\n\n"
	if string(body) != want {
		t.Errorf("stored run's events = %q, want %q", body, want)
	}
	if resp.ContentLength != int64(len(want)) || resp.Header.Get("Content-Length") == "" || len(resp.TransferEncoding) != 0 {
		t.Errorf("stored run's events: Content-Length %q (%d), Transfer-Encoding %v; want %d bytes, not chunked",
			resp.Header.Get("Content-Length"), resp.ContentLength, resp.TransferEncoding, len(want))
	}
}

func mustReq(t *testing.T, method, url string) *http.Request {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	return req
}

func TestCancelRunningJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	job := submit(t, ts, RunSpec{Runner: "test-block"})
	<-blockStarted

	resp, err := http.DefaultClient.Do(mustReq(t, http.MethodDelete, ts.URL+"/v1/runs/"+job.ID))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("cancel: status %d", resp.StatusCode)
	}
	got := waitState(t, ts, job.ID, StateCanceled)
	if got.Error == "" {
		t.Error("canceled job carries no reason")
	}
	events := readEvents(t, ts, job.ID)
	if len(events) == 0 || events[len(events)-1]["kind"] != "canceled" {
		t.Errorf("stream did not end with canceled: %v", events)
	}
}

// TestCancelInsideCell cancels a job whose runner is one long simulation
// cell, once the cell is demonstrably running (its first live event has
// been streamed): the job must end canceled — not done, which is what a
// runner that only looks at its context between cells makes it — and the
// worker must be free for the next job.
func TestCancelInsideCell(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	job := submit(t, ts, RunSpec{Runner: "test-million-cell"})

	resp, err := http.Get(ts.URL + "/v1/runs/" + job.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() && !strings.Contains(sc.Text(), `"kind":"responses"`) {
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	del, err := http.DefaultClient.Do(mustReq(t, http.MethodDelete, ts.URL+"/v1/runs/"+job.ID))
	if err != nil {
		t.Fatal(err)
	}
	del.Body.Close()
	// The stream ends when the job is terminal.
	last := ""
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "data: ") {
			last = sc.Text()
		}
	}
	if got := getJob(t, ts, job.ID); got.State != StateCanceled || !strings.Contains(last, `"kind":"canceled"`) {
		t.Fatalf("job canceled inside its cell ended %s (%s); last event %s", got.State, got.Error, last)
	}
	next := submit(t, ts, RunSpec{Runner: "eq22"})
	waitState(t, ts, next.ID, StateDone)
}

func TestCancelQueuedJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	running := submit(t, ts, RunSpec{Runner: "test-block"})
	<-blockStarted
	queued := submit(t, ts, RunSpec{Runner: "test-block", Seed: 2})

	resp, err := http.DefaultClient.Do(mustReq(t, http.MethodDelete, ts.URL+"/v1/runs/"+queued.ID))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitState(t, ts, queued.ID, StateCanceled)

	// Unblock the worker.
	resp, err = http.DefaultClient.Do(mustReq(t, http.MethodDelete, ts.URL+"/v1/runs/"+running.ID))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitState(t, ts, running.ID, StateCanceled)
}

// TestShutdownDrains exercises the graceful path: SIGTERM-equivalent
// Shutdown with an already-expired drain deadline cancels the in-flight
// run, closes its SSE stream with a shutdown event, refuses new
// submissions, and leaves no index behind.
func TestShutdownDrains(t *testing.T) {
	dir := t.TempDir()
	svc, ts := newTestServer(t, Config{Workers: 1, CacheDir: dir})
	job := submit(t, ts, RunSpec{Runner: "test-block"})
	<-blockStarted

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // drain deadline already passed: in-flight runs are interrupted
	if err := svc.Shutdown(ctx); err != context.Canceled {
		t.Fatalf("Shutdown = %v, want context.Canceled", err)
	}

	got := getJob(t, ts, job.ID)
	if got.State != StateCanceled {
		t.Fatalf("in-flight job state = %s after shutdown", got.State)
	}
	events := readEvents(t, ts, job.ID)
	if len(events) == 0 || events[len(events)-1]["kind"] != "shutdown" {
		t.Errorf("stream did not end with shutdown: %v", events)
	}

	body, _ := json.Marshal(RunSpec{Runner: "fig4"})
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit after shutdown: status %d, want 503", resp.StatusCode)
	}

	// Every store entry reached disk when it was made; shutdown writes no
	// index of them.
	if _, err := os.Stat(filepath.Join(dir, "index.json")); !os.IsNotExist(err) {
		t.Errorf("shutdown wrote an index: %v", err)
	}
}

// TestShutdownFinishesIdle: with nothing running, Shutdown returns
// promptly and cleanly even with a generous deadline.
func TestShutdownFinishesIdle(t *testing.T) {
	svc, _ := newTestServer(t, Config{Workers: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatalf("idle Shutdown = %v", err)
	}
}

// TestJobTableBounded: past maxTerminalJobs finished jobs the first to
// end are forgotten — the table stays bounded, the newest job is there,
// the oldest answers 404 — while a running job older than all of them
// stays, and can still be fetched once it ends.
func TestJobTableBounded(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2})
	running := submit(t, ts, RunSpec{Runner: "test-block"})
	<-blockStarted
	oldest := submit(t, ts, RunSpec{Runner: "fig4"})
	waitState(t, ts, oldest.ID, StateDone)
	var newest Job
	for i := 0; i < maxTerminalJobs+10; i++ {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/runs", strings.NewReader(`{"runner":"fig4"}`)))
		if err := json.Unmarshal(rec.Body.Bytes(), &newest); err != nil || rec.Code != http.StatusCreated || !newest.Cached {
			t.Fatalf("submission %d: status %d, cached %v (%v)", i, rec.Code, newest.Cached, err)
		}
	}
	jobs, ended := jobCounts(srv)
	if jobs != maxTerminalJobs+1 || ended != maxTerminalJobs {
		t.Errorf("%d jobs, %d ended, want %d and %d", jobs, ended, maxTerminalJobs+1, maxTerminalJobs)
	}
	if got := getJob(t, ts, newest.ID); got.State != StateDone {
		t.Errorf("newest job %s is %q", newest.ID, got.State)
	}
	resp, err := http.Get(ts.URL + "/v1/runs/" + oldest.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("oldest finished job: status %d, want 404", resp.StatusCode)
	}
	if got := getJob(t, ts, running.ID); got.State != StateRunning {
		t.Errorf("running job is %q", got.State)
	}
	del, err := http.DefaultClient.Do(mustReq(t, http.MethodDelete, ts.URL+"/v1/runs/"+running.ID))
	if err != nil {
		t.Fatal(err)
	}
	del.Body.Close()
	waitState(t, ts, running.ID, StateCanceled)
}

func TestStatsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"codeVersion", "jobs", "simulations", "cacheHits", "cachedResults",
		"cellHits", "cellMisses", "cachedCells"} {
		if _, ok := stats[key]; !ok {
			t.Errorf("stats missing %q: %v", key, stats)
		}
	}
	if stats["codeVersion"] != "test-v1" {
		t.Errorf("codeVersion = %v", stats["codeVersion"])
	}
}

// TestCellCacheComposesAcrossRunners pins the tentpole property at the
// service layer: two different runners whose sweeps overlap share cells
// through the store, so the second run simulates only its novel cells
// even though the run-level cache (keyed by the whole spec) misses.
func TestCellCacheComposesAcrossRunners(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1})

	cellStats := func() (hits, misses, simulations int64) {
		return svc.store.Hits(), svc.store.Misses(), svc.simulations.Load()
	}

	narrow := submit(t, ts, RunSpec{Runner: "test-conc-narrow"})
	waitState(t, ts, narrow.ID, StateDone)
	hits, misses, sims := cellStats()
	if hits != 0 || misses != 3 || sims != 1 {
		t.Fatalf("after narrow: hits=%d misses=%d simulations=%d, want 0, 3, 1", hits, misses, sims)
	}

	wide := submit(t, ts, RunSpec{Runner: "test-conc-wide"})
	done := waitState(t, ts, wide.ID, StateDone)
	if done.Cached {
		t.Fatal("wide run answered from the run-level cache; it should have run with cell reuse")
	}
	hits, misses, sims = cellStats()
	if hits != 3 || misses != 4 || sims != 2 {
		t.Fatalf("after wide: hits=%d misses=%d simulations=%d, want 3 (narrow's cells reused), 4 (one new cell), 2", hits, misses, sims)
	}

	// A cold server rendering wide from scratch must produce the same
	// bytes the warm composition did.
	warmOut := fetchResult(t, ts, wide.ID)
	_, ts2 := newTestServer(t, Config{Workers: 1})
	coldJob := submit(t, ts2, RunSpec{Runner: "test-conc-wide"})
	waitState(t, ts2, coldJob.ID, StateDone)
	coldOut := fetchResult(t, ts2, coldJob.ID)
	if !bytes.Equal(warmOut, coldOut) {
		t.Errorf("cell-composed result differs from cold run:\n-- warm --\n%s\n-- cold --\n%s", warmOut, coldOut)
	}
}

// fetchResult reads a done run's raw result bytes.
func fetchResult(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/runs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: status %d", resp.StatusCode)
	}
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestListRuns(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	a := submit(t, ts, RunSpec{Runner: "test-block"})
	<-blockStarted
	resp, err := http.Get(ts.URL + "/v1/runs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got struct {
		Runs []Job `json:"runs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if len(got.Runs) != 1 || got.Runs[0].ID != a.ID {
		t.Fatalf("list = %+v", got.Runs)
	}
	del, err := http.DefaultClient.Do(mustReq(t, http.MethodDelete, ts.URL+"/v1/runs/"+a.ID))
	if err != nil {
		t.Fatal(err)
	}
	del.Body.Close()
}

func TestResultConflictBeforeDone(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	job := submit(t, ts, RunSpec{Runner: "test-block"})
	<-blockStarted
	resp, err := http.Get(ts.URL + "/v1/runs/" + job.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("result before done: status %d, want 409", resp.StatusCode)
	}
	del, err := http.DefaultClient.Do(mustReq(t, http.MethodDelete, ts.URL+"/v1/runs/"+job.ID))
	if err != nil {
		t.Fatal(err)
	}
	del.Body.Close()
}
