package service

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"tcptrim/internal/experiment"
)

func init() {
	err := experiment.Register(experiment.RunnerInfo{
		ID:          "test-seed",
		Description: "test runner that prints its seed",
	}, func(opts experiment.Options, w io.Writer) error {
		_, err := fmt.Fprintf(w, "seed %d\n", opts.Seed)
		return err
	})
	if err != nil {
		panic(err)
	}
}

// storedServer boots a Server whose store holds fig4's run, simulated
// once: every later fig4 submit is a store hit.
func storedServer(t *testing.T) *Server {
	t.Helper()
	srv, ts := newTestServer(t, Config{Workers: 1})
	waitState(t, ts, submit(t, ts, RunSpec{Runner: "fig4"}).ID, StateDone)
	return srv
}

// serve sends one request through ServeHTTP and returns its status.
func serve(srv *Server, method, path, body string) int {
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec.Code
}

// TestCachedRoundTripAllocs pins the allocations of one store-hit round
// trip through ServeHTTP — submit, event stream, result — request and
// recorder included.
func TestCachedRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own account")
	}
	srv := storedServer(t)
	const runs = 2000
	ids := make([]string, runs+2)
	for i := range ids {
		ids[i] = fmt.Sprintf("/v1/runs/run-%06d", i+2)
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		id := ids[next]
		next++
		if serve(srv, http.MethodPost, "/v1/runs", `{"runner":"fig4"}`) != http.StatusCreated ||
			serve(srv, http.MethodGet, id+"/events", "") != http.StatusOK ||
			serve(srv, http.MethodGet, id+"/result", "") != http.StatusOK {
			t.Fatalf("round trip %s failed", id)
		}
	})
	t.Logf("%.0f allocations per cached round trip", allocs)
	// The table's *Job, its id and the id's boxed argument took 84 (go1.24,
	// amd64); a finished job's record allocates nothing of its own.
	const parent = 84
	if allocs > parent {
		t.Errorf("%.0f allocations per cached round trip, want at most %d", allocs, parent)
	}
}

// TestFinishedJobFootprint: the heap a full table of finished jobs
// retains, per job, over maxTerminalJobs store hits — its record, its
// index entry, and nothing the request left behind. The heap is the
// process's, so it takes the smallest delta over three fresh servers: a
// goroutine an earlier test left behind may allocate during one of them,
// not during all three.
func TestFinishedJobFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes under the race runtime are not the program's")
	}
	heap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	perJob := math.Inf(1)
	for range 3 {
		srv := storedServer(t)
		base := heap()
		for i := 0; i < maxTerminalJobs; i++ {
			if code := serve(srv, http.MethodPost, "/v1/runs", `{"runner":"fig4"}`); code != http.StatusCreated {
				t.Fatalf("submission %d: status %d", i, code)
			}
		}
		perJob = min(perJob, float64(heap()-base)/maxTerminalJobs)
		runtime.KeepAlive(srv)
	}
	t.Logf("%.1f B retained per finished job", perJob)
	if perJob > 96 {
		t.Errorf("%.1f B retained per finished job, want at most 96", perJob)
	}
}

// TestFinishedRecordSize: a finished job is at most 72 bytes with at most
// two pointer words, so a full table is small and nearly free to mark.
func TestFinishedRecordSize(t *testing.T) {
	if size, words := unsafe.Sizeof(finished{}), pointerWords(reflect.TypeOf(finished{})); size > 72 || words > 2 {
		t.Errorf("finished is %d B with %d pointer words, want at most 72 and 2", size, words)
	}
}

// pointerWords counts the words of a value of typ that the collector
// follows.
func pointerWords(typ reflect.Type) int {
	switch typ.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.String, reflect.Map, reflect.Chan, reflect.Func, reflect.UnsafePointer:
		return 1
	case reflect.Interface:
		return 2
	case reflect.Array:
		return typ.Len() * pointerWords(typ.Elem())
	case reflect.Struct:
		n := 0
		for i := 0; i < typ.NumField(); i++ {
			n += pointerWords(typ.Field(i).Type)
		}
		return n
	}
	return 0
}

// TestRunIDs: parseID accepts exactly what formatID makes.
func TestRunIDs(t *testing.T) {
	for _, seq := range []int64{1, 9, 10, 999999, 1000000, 1234567, 1 << 40} {
		id := formatID(seq)
		if id != fmt.Sprintf("run-%06d", seq) {
			t.Errorf("formatID(%d) = %q", seq, id)
		}
		if got, ok := parseID(id); !ok || got != seq {
			t.Errorf("parseID(%q) = %d, %v", id, got, ok)
		}
	}
	for _, id := range []string{"", "run-", "run-1", "run-00001", "run-0000001", "run-00000a", "RUN-000001",
		"run-000000", "run-+00001", "run--00001", "run-000001 ", "run-" + strings.Repeat("1", 30), "x"} {
		if seq, ok := parseID(id); ok {
			t.Errorf("parseID(%q) = %d, want refused", id, seq)
		}
	}
}

// TestJobLookupRacesEviction: GETs of ids at the eviction edge, racing
// the submits that evict them, answer with the job they name or 404 —
// never with another job's fields.
func TestJobLookupRacesEviction(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1})
	// Run seq is test-seed at seed seq%7+1, and every run past the first
	// seven is a store hit.
	const seeds = 7
	seedOf := func(seq int64) int64 { return seq%seeds + 1 }
	for seq := int64(1); seq <= seeds; seq++ {
		waitState(t, ts, submit(t, ts, RunSpec{Runner: "test-seed", Seed: seedOf(seq)}).ID, StateDone)
	}
	var last atomic.Int64
	last.Store(seeds)
	post := func() {
		seq := last.Load() + 1
		body := fmt.Sprintf(`{"runner":"test-seed","seed":%d}`, seedOf(seq))
		if code := serve(srv, http.MethodPost, "/v1/runs", body); code != http.StatusCreated {
			t.Errorf("submit %d: status %d", seq, code)
		}
		last.Store(seq)
	}
	for last.Load() < maxTerminalJobs {
		post()
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Ids around the oldest kept, already evicted and not yet issued.
				seq := last.Load() - maxTerminalJobs + int64(rng.Intn(64)) - 32
				if rng.Intn(16) == 0 {
					seq = last.Load() + int64(rng.Intn(4))
				}
				if seq < 1 {
					seq = 1
				}
				id := formatID(seq)
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/runs/"+id, nil))
				if rec.Code == http.StatusNotFound {
					continue
				}
				var job Job
				if err := json.Unmarshal(rec.Body.Bytes(), &job); err != nil || rec.Code != http.StatusOK {
					t.Errorf("GET %s: status %d, %v", id, rec.Code, err)
					return
				}
				if job.ID != id || job.Spec != (RunSpec{Runner: "test-seed", Seed: seedOf(seq)}) || job.State != StateDone {
					t.Errorf("GET %s answered %+v", id, job)
					return
				}
				rec = httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/runs/"+id+"/result", nil))
				if want := fmt.Sprintf("seed %d\n", seedOf(seq)); rec.Code != http.StatusNotFound && rec.Body.String() != want {
					t.Errorf("GET %s/result: status %d, %q, want %q", id, rec.Code, rec.Body.String(), want)
					return
				}
			}
		}(r)
	}
	for i := 0; i < 2000; i++ {
		post()
	}
	close(stop)
	wg.Wait()
	if jobs, ended := jobCounts(srv); jobs != maxTerminalJobs || ended != maxTerminalJobs {
		t.Errorf("%d jobs, %d ended, want %d each", jobs, ended, maxTerminalJobs)
	}
}
