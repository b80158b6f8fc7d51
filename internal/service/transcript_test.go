package service

import (
	"context"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
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

var updateTranscript = flag.Bool("update", false, "rewrite testdata/transcript.txt from this build")

func init() {
	err := experiment.Register(experiment.RunnerInfo{
		ID:          "test-fail",
		Description: "test runner that fails at once",
	}, func(opts experiment.Options, w io.Writer) error {
		return errors.New("test-fail: the runner refused")
	})
	if err != nil {
		panic(err)
	}
}

// transcript drives a Server through ServeHTTP and records every reply:
// status, content type and body, or the body's length and digest when
// it is long.
type transcript struct {
	t   *testing.T
	srv *Server
	b   strings.Builder
}

func (tr *transcript) do(method, path, body string) *httptest.ResponseRecorder {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	rec := httptest.NewRecorder()
	tr.srv.ServeHTTP(rec, httptest.NewRequest(method, path, rd))
	return rec
}

// log makes one request and records its reply.
func (tr *transcript) log(method, path, body string) *httptest.ResponseRecorder {
	rec := tr.do(method, path, body)
	fmt.Fprintf(&tr.b, "%s %s", method, path)
	if body != "" {
		fmt.Fprintf(&tr.b, " %s", body)
	}
	fmt.Fprintf(&tr.b, "\n-> %d %s\n", rec.Code, rec.Header().Get("Content-Type"))
	if out := rec.Body.Bytes(); len(out) > 4096 {
		fmt.Fprintf(&tr.b, "[%d bytes, sha256 %x]\n", len(out), sha256.Sum256(out))
	} else {
		tr.b.Write(out)
	}
	tr.b.WriteString("\n")
	return rec
}

// note records a line of its own.
func (tr *transcript) note(format string, args ...any) {
	fmt.Fprintf(&tr.b, "# "+format+"\n", args...)
}

// wait polls run id, unrecorded, until it reaches state.
func (tr *transcript) wait(id, state string) {
	tr.t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if strings.Contains(tr.do(http.MethodGet, "/v1/runs/"+id, "").Body.String(), `"state": "`+state+`"`) {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	tr.t.Fatalf("run %s never reached %s", id, state)
}

// TestServiceTranscript pins every response the service gives to one
// script: simulated runs and store hits, a failed and two canceled runs,
// lookups, results, event streams, list, stats, cancels of finished runs,
// refused ids, and eviction past maxTerminalJobs. Re-pin with -update.
func TestServiceTranscript(t *testing.T) {
	if testing.Short() {
		t.Skip("submits maxTerminalJobs runs")
	}
	srv, err := New(Config{Workers: 1, CodeVersion: "test-v1", StreamMinGap: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	tr := &transcript{t: t, srv: srv}
	get := func(path string) { tr.log(http.MethodGet, path, "") }
	post := func(body string) { tr.log(http.MethodPost, "/v1/runs", body) }

	tr.note("a simulated run, then its store hits")
	post(`{"runner":"fig4"}`)
	tr.wait("run-000001", StateDone)
	get("/v1/runs/run-000001")
	get("/v1/runs/run-000001/events")
	get("/v1/runs/run-000001/result")
	post(`{"runner":"fig4"}`)
	post(`{"runner":"fig4","seed":1}`)
	post(`{"runner":"fig4","reps":0,"fidelity":""}`)
	get("/v1/runs/run-000002")
	get("/v1/runs/run-000003/events")
	get("/v1/runs/run-000003/result")

	tr.note("specs spelled another accepted way")
	post(`{"runner":"eq22","aqm":"FIFO","recovery":"classic","fidelity":"packet"}`)
	tr.wait("run-000005", StateDone)
	get("/v1/runs/run-000005")
	post(`{"runner":"eq22","aqm":"FIFO","recovery":"classic","fidelity":"packet"}`)
	post(`{"runner":"eq22","seed":3,"reps":2,"aqm":"red","recovery":"rack-tlp","fidelity":"hybrid"}`)
	tr.wait("run-000007", StateDone)
	get("/v1/runs/run-000007")

	tr.note("refused submits record nothing")
	post(`{"runner":"nope"}`)
	post(`{"runner":"fig4","reps":-1}`)
	post(`{"runner":"fig4","shards":2}`)
	post(`{`)

	tr.note("a failed run and two canceled ones")
	post(`{"runner":"test-fail"}`)
	tr.wait("run-000008", StateFailed)
	get("/v1/runs/run-000008")
	get("/v1/runs/run-000008/events")
	get("/v1/runs/run-000008/result")
	post(`{"runner":"test-block"}`)
	<-blockStarted
	tr.wait("run-000009", StateRunning)
	post(`{"runner":"test-block","seed":2}`)
	get("/v1/runs/run-000009")
	get("/v1/runs/run-000010")
	get("/v1/runs/run-000009/result")
	get("/v1/runs")
	tr.log(http.MethodDelete, "/v1/runs/run-000010", "")
	get("/v1/runs/run-000010")
	tr.log(http.MethodDelete, "/v1/runs/run-000009", "")
	tr.wait("run-000009", StateCanceled)
	get("/v1/runs/run-000009")
	get("/v1/runs/run-000009/events")
	get("/v1/runs/run-000010/events")

	tr.note("cancels of finished runs change nothing")
	tr.log(http.MethodDelete, "/v1/runs/run-000001", "")
	tr.log(http.MethodDelete, "/v1/runs/run-000002", "")
	tr.log(http.MethodDelete, "/v1/runs/run-000008", "")
	get("/v1/runs/run-000001")
	get("/v1/runs/run-000002")
	get("/v1/runs")
	get("/v1/stats")

	tr.note("ids never issued")
	for _, id := range []string{"run-1", "run-0000001", "run-00000a", "RUN-000001", "run-000000",
		"run-000011", "run-" + strings.Repeat("1", 30), "run-+00001", "run--00001", "run-00001", "x"} {
		get("/v1/runs/" + id)
		get("/v1/runs/" + id + "/result")
		get("/v1/runs/" + id + "/events")
		tr.log(http.MethodDelete, "/v1/runs/"+id, "")
	}

	// Run 10 ended before run 9: eviction goes by end time, so run 9
	// outlives it.
	tr.note("%d store hits: the runs that ended first are forgotten", maxTerminalJobs-1)
	created := 0
	for i := 0; i < maxTerminalJobs-1; i++ {
		spec := `{"runner":"fig4"}`
		if i%3 == 1 {
			spec = `{"runner":"eq22","aqm":"FIFO","recovery":"classic","fidelity":"packet"}`
		}
		if rec := tr.do(http.MethodPost, "/v1/runs", spec); rec.Code == http.StatusCreated {
			created++
		}
	}
	tr.note("%d created", created)
	last := 10 + created
	for _, seq := range []int{1, 2, 7, 8, 9, 10, 11, 12, last - 1, last, last + 1} {
		get(fmt.Sprintf("/v1/runs/run-%06d", seq))
	}
	get(fmt.Sprintf("/v1/runs/run-%06d/result", last))
	get(fmt.Sprintf("/v1/runs/run-%06d/events", last))
	get("/v1/runs/run-000012/result")
	get("/v1/runs")
	get("/v1/stats")

	path := filepath.Join("testdata", "transcript.txt")
	got := tr.b.String()
	if *updateTranscript {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("transcript differs at line %d:\n got: %s\nwant: %s", i+1, g, w)
			}
		}
	}
}
