package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"time"

	"tcptrim/internal/cellcache"
	"tcptrim/internal/service"
)

// svcClient is one closed-loop client: it sends its next request only
// after the previous reply, over its own connection to the host's
// loopback interface (not a real link).
type svcClient struct {
	http *http.Client
	base string
}

func newSvcClient(base string) *svcClient {
	return &svcClient{base: base, http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}}
}

func (c *svcClient) close() { c.http.CloseIdleConnections() }

// get fetches path and returns the body of a 2xx reply.
func (c *svcClient) get(path string) ([]byte, error) {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return body, nil
}

// tripTimes splits one round trip into its three requests.
type tripTimes struct{ submit, events, result, total time.Duration }

// roundTrip submits spec, follows the run's event stream to its terminal
// event and fetches the result, which must equal want (nil = any).
func (c *svcClient) roundTrip(tr *tracer, parent int, spec string, want []byte) (tripTimes, error) {
	var t tripTimes
	trace := tr.newTrace()
	begin := time.Now()

	_, end := tr.start(trace, parent, "submit")
	resp, err := c.http.Post(c.base+"/v1/runs", "application/json", strings.NewReader(spec))
	if err != nil {
		end()
		return t, err
	}
	var job struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&job)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	end()
	if err != nil || resp.StatusCode/100 != 2 {
		return t, fmt.Errorf("submit %s: %s (%v)", spec, resp.Status, err)
	}
	t.submit = time.Since(begin)

	mark := time.Now()
	_, end = tr.start(trace, parent, "events")
	events, err := c.get("/v1/runs/" + job.ID + "/events")
	end()
	if err != nil {
		return t, err
	}
	lines := strings.Split(strings.TrimSpace(string(events)), "\n")
	if last := lines[len(lines)-1]; !strings.Contains(last, `"kind":"done"`) {
		return t, fmt.Errorf("run %s ended with %q", job.ID, last)
	}
	t.events = time.Since(mark)

	mark = time.Now()
	_, end = tr.start(trace, parent, "result")
	got, err := c.get("/v1/runs/" + job.ID + "/result")
	end()
	if err != nil {
		return t, err
	}
	t.result = time.Since(mark)
	t.total = time.Since(begin)
	if want != nil && !bytes.Equal(got, want) {
		return t, fmt.Errorf("run %s: result differs from direct experiment.Run", job.ID)
	}
	return t, nil
}

// svcStats is the part of GET /v1/stats the benchmark reads.
type svcStats struct {
	Simulations int64 `json:"simulations"`
	CacheHits   int64 `json:"cacheHits"`
	CellHits    int64 `json:"cellHits"`
	CellMisses  int64 `json:"cellMisses"`
}

func (c *svcClient) stats() (svcStats, error) {
	var s svcStats
	body, err := c.get("/v1/stats")
	if err != nil {
		return s, err
	}
	return s, json.Unmarshal(body, &s)
}

// svcHarness is an in-process trimsvc behind an HTTP test server.
type svcHarness struct {
	dir string
	srv *service.Server
	ts  *httptest.Server
}

func bootService(tr *tracer, parent int) (*svcHarness, error) {
	dir, err := os.MkdirTemp("", "cache-warm-")
	if err != nil {
		return nil, err
	}
	_, end := tr.start(tr.newTrace(), parent, "service.New")
	srv, err := service.New(service.Config{Workers: 1, CacheDir: dir, CodeVersion: "bench"})
	end()
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return &svcHarness{dir: dir, srv: srv, ts: httptest.NewServer(srv)}, nil
}

// shutdown stops the server and removes its cache directory.
func (h *svcHarness) shutdown(tr *tracer) error {
	h.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, end := tr.start(tr.newTrace(), 0, "service.Shutdown")
	err := h.srv.Shutdown(ctx)
	end()
	os.RemoveAll(h.dir)
	return err
}

// specJSON is the RunSpec a client posts.
func specJSON(sw sweepSpec, seed int64) string {
	if sw.aqm == "" {
		return fmt.Sprintf(`{"runner":%q,"seed":%d}`, sw.id, seed)
	}
	return fmt.Sprintf(`{"runner":%q,"seed":%d,"aqm":%q}`, sw.id, seed, sw.aqm)
}

// directRuns runs every sweep with the cache off: the bytes each cached
// answer must equal, in the order of specs.
func directRuns(specs []sweepSpec, seed int64) ([][]byte, error) {
	ref := make([][]byte, len(specs))
	for i, sw := range specs {
		var buf bytes.Buffer
		if err := runSweep(nil, 0, sw, seed, nil, &buf); err != nil {
			return nil, err
		}
		ref[i] = buf.Bytes()
	}
	return ref, nil
}

// coldFill boots a service on a fresh directory and runs every spec
// through it once, cold.
func coldFill(cfg runConfig, specs []sweepSpec, ref [][]byte) (*svcHarness, error) {
	h, err := bootService(cfg.tr, 0)
	if err != nil {
		return nil, err
	}
	c := newSvcClient(h.ts.URL)
	defer c.close()
	for i, sw := range specs {
		if _, err := c.roundTrip(cfg.tr, 0, specJSON(sw, cfg.seed), ref[i]); err != nil {
			h.shutdown(cfg.tr)
			return nil, fmt.Errorf("cold fill: %w", err)
		}
	}
	return h, nil
}

// cacheWarm answers everything from the caches: (A) two closed-loop
// clients make round trips against one long-lived service whose run
// cache holds every spec, then (B) the sweeps are re-run against the
// service's cell directory the way `trimsim -cache dir` re-runs them.
// Both halves go in batches, each batch a part timed on its own.
type cacheWarm struct {
	cfg     runConfig
	specs   []sweepSpec
	batches int      // batches per half per iteration
	trips   int      // round trips per client per batch
	passes  int      // warm passes of every sweep per batch
	ref     [][]byte // cache-off tables, in the order of specs
	digest  string   // of ref: every answer is checked against it
	svc     *svcHarness
	clients [2]*svcClient
}

func openCacheWarm(cfg runConfig) (instance, error) {
	w := &cacheWarm{cfg: cfg, specs: sweeps, batches: 8, trips: 100, passes: 25}
	if cfg.quick {
		w.specs, w.batches, w.trips, w.passes = quickSweeps, 1, 10, 5
	}
	// Preparation is the cache-off runs every answer is checked against
	// and the cold submit-to-result cost: one fill of a fresh service.
	var err error
	if w.ref, err = directRuns(w.specs, cfg.seed); err != nil {
		return nil, err
	}
	w.digest = digestOf(w.ref)
	if w.svc, err = coldFill(cfg, w.specs, w.ref); err != nil {
		return nil, err
	}
	for i := range w.clients {
		w.clients[i] = newSvcClient(w.svc.ts.URL)
	}
	return w, nil
}

// closedLoop makes n round trips on every client at once, client c
// starting at spec c and cycling. It returns each client's trip times,
// how many trips failed and the last error behind a failure.
func closedLoop(tr *tracer, parent int, clients []*svcClient, specs []sweepSpec, ref [][]byte, seed int64, n int) (times [][]tripTimes, failed int, last error) {
	times = make([][]tripTimes, len(clients))
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				k := (i + c) % len(specs)
				t, err := clients[c].roundTrip(tr, parent, specJSON(specs[k], seed), ref[k])
				if err != nil {
					errs[c] = err
					continue
				}
				times[c] = append(times[c], t)
			}
		}(c)
	}
	wg.Wait()
	for c := range clients {
		failed += n - len(times[c])
		if errs[c] != nil {
			last = errs[c]
		}
	}
	return times, failed, last
}

func (w *cacheWarm) iterate(parent int, lap func()) (iterResult, error) {
	before, err := w.clients[0].stats()
	if err != nil {
		return iterResult{}, err
	}
	var out iterResult

	// (A) closed loop: each client's next round trip waits for its last.
	for b := 0; b < w.batches; b++ {
		_, failed, err := closedLoop(w.cfg.tr, parent, w.clients[:], w.specs, w.ref, w.cfg.seed, w.trips)
		lap()
		out.ops += len(w.clients) * w.trips
		out.failed += failed
		if err != nil {
			out.opErr = err
		}
	}
	after, err := w.clients[0].stats()
	if err != nil {
		return out, err
	}
	if after.Simulations != before.Simulations || after.CellMisses != before.CellMisses {
		return out, fmt.Errorf("cache_warm: the service simulated during timing (simulations %d to %d, cell misses %d to %d)",
			before.Simulations, after.Simulations, before.CellMisses, after.CellMisses)
	}

	// (B) warm re-runs: the first pass reads the disk tier, the rest memory.
	_, end := w.cfg.tr.start(w.cfg.tr.newTrace(), parent, "cellcache.Open")
	store, err := cellcache.Open(w.svc.dir)
	end()
	if err != nil {
		return out, err
	}
	var buf bytes.Buffer
	for b := 0; b < w.batches; b++ {
		for p := 0; p < w.passes; p++ {
			for k, sw := range w.specs {
				buf.Reset()
				err := runSweep(w.cfg.tr, parent, sw, w.cfg.seed, store, &buf)
				if err == nil && !bytes.Equal(buf.Bytes(), w.ref[k]) {
					err = fmt.Errorf("warm %s differs from the cache-off run", sw)
				}
				out.ops++
				if err != nil {
					out.failed++
					out.opErr = err
				}
			}
		}
		lap()
	}
	if store.Misses() != 0 {
		return out, fmt.Errorf("cache_warm: %d cells simulated on a warm re-run", store.Misses())
	}
	out.digest = w.digest
	return out, nil
}

func (w *cacheWarm) close() error {
	for _, c := range w.clients {
		if c != nil {
			c.close()
		}
	}
	return w.svc.shutdown(w.cfg.tr)
}
