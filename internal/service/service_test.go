package service

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"tcptrim/internal/cellcache"
	"tcptrim/internal/experiment"
)

// TestSpecKeyCanonical: two specs that mean the same run share one stored
// run — zero values are omitted and seed 0 is seed 1 — while another
// seed, runner or option is another address.
func TestSpecKeyCanonical(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1})
	waitState(t, ts, submit(t, ts, RunSpec{Runner: "fig4"}).ID, StateDone)
	for _, tc := range []struct {
		spec   RunSpec
		stored bool
	}{
		{RunSpec{Runner: "fig4"}, true},
		{RunSpec{Runner: "fig4", Seed: 1, Reps: 0}, true},
		{RunSpec{Runner: "fig4", Seed: 2}, false},
		{RunSpec{Runner: "fig6"}, false},
		{RunSpec{Runner: "fig4", AQM: "droptail"}, false},
	} {
		opts := tc.spec.Options()
		opts.Cache = svc.store
		if _, ok := experiment.StoredRun(tc.spec.Runner, opts); ok != tc.stored {
			t.Errorf("%+v: stored = %v, want %v", tc.spec, ok, tc.stored)
		}
	}
}

func TestSpecValidate(t *testing.T) {
	if err := (RunSpec{Runner: "fig4"}).Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	if err := (RunSpec{}).Validate(); err == nil {
		t.Error("empty runner accepted")
	}
	if err := (RunSpec{Runner: "nope"}).Validate(); err == nil {
		t.Error("unknown runner accepted")
	}
	if err := (RunSpec{Runner: "fig4", Reps: -1}).Validate(); err == nil {
		t.Error("invalid options accepted")
	}
}

// TestCachePersistsAcrossProcesses: a run one service computed is answered
// whole by the next service on the same directory and by experiment.Run
// the way trimsim -cache calls it, with nothing simulated and no cell
// looked up; a run file that has gone is a miss, not an error.
func TestCachePersistsAcrossProcesses(t *testing.T) {
	dir := t.TempDir()
	spec := RunSpec{Runner: "resilience-smoke"}
	svc1, ts1 := newTestServer(t, Config{Workers: 1, CacheDir: dir})
	job := submit(t, ts1, spec)
	waitState(t, ts1, job.ID, StateDone)
	want := fetchResult(t, ts1, job.ID)
	if err := svc1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// A "new process": a fresh service over the same directory.
	svc2, ts2 := newTestServer(t, Config{Workers: 1, CacheDir: dir})
	again := submit(t, ts2, spec)
	if !again.Cached || !bytes.Equal(fetchResult(t, ts2, again.ID), want) {
		t.Fatalf("restarted service: cached=%v, or the result differs", again.Cached)
	}
	if n := svc2.simulations.Load(); n != 0 {
		t.Errorf("restarted service simulated %d runs", n)
	}

	store, err := cellcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := experiment.Run(spec.Runner, experiment.Options{Cache: store}, &buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) || store.Runs().Hits != 1 || store.Hits()+store.Misses() != 0 {
		t.Errorf("experiment.Run on the service's directory: %d run hits, %d cell lookups, same bytes %v",
			store.Runs().Hits, store.Hits()+store.Misses(), bytes.Equal(buf.Bytes(), want))
	}

	runs, _ := filepath.Glob(filepath.Join(dir, "*.run"))
	if len(runs) != 1 {
		t.Fatalf("%d run files, want 1", len(runs))
	}
	if err := os.Remove(runs[0]); err != nil {
		t.Fatal(err)
	}
	_, ts3 := newTestServer(t, Config{Workers: 1, CacheDir: dir})
	if job := submit(t, ts3, spec); job.Cached {
		t.Error("hit with the run file missing")
	} else {
		waitState(t, ts3, job.ID, StateDone)
	}
}

func TestStreamReplayAndFanout(t *testing.T) {
	st := &stream{}
	st.publish([]byte("a"))
	st.publish([]byte("b"))

	replay, live, cancel := st.subscribe()
	defer cancel()
	if len(replay) != 2 || string(replay[0]) != "a" || string(replay[1]) != "b" {
		t.Fatalf("replay = %q", replay)
	}
	st.publish([]byte("c"))
	select {
	case data := <-live:
		if string(data) != "c" {
			t.Fatalf("live = %q", data)
		}
	case <-time.After(time.Second):
		t.Fatal("live event not delivered")
	}

	st.close([]byte("end"))
	if data, ok := <-live; !ok || string(data) != "end" {
		t.Fatalf("terminal = %q, %t", data, ok)
	}
	if _, ok := <-live; ok {
		t.Fatal("channel not closed after terminal")
	}

	// Subscribing after close: full replay, no live channel.
	replay, live, cancel = st.subscribe()
	defer cancel()
	if live != nil {
		t.Error("live channel on a closed stream")
	}
	if len(replay) != 4 || string(replay[3]) != "end" {
		t.Fatalf("post-close replay = %q", replay)
	}
}

func TestSinkThrottlesSamples(t *testing.T) {
	st := &stream{}
	s := newSink(st, time.Hour) // nothing but the first of each metric passes
	for i := 0; i < 10; i++ {
		s.Publish(experiment.ProgressEvent{Kind: "sample", Name: "goodput", Value: float64(i)})
		s.Publish(experiment.ProgressEvent{Kind: "sample", Name: "cwnd", Value: float64(i)})
		s.Publish(experiment.ProgressEvent{Kind: "cell", Name: "c", Done: i + 1, Total: 10})
	}
	replay, _, cancel := st.subscribe()
	cancel()
	// 1 goodput + 1 cwnd + 10 cells: milestones bypass the throttle.
	if len(replay) != 12 {
		t.Fatalf("got %d events, want 12: %s", len(replay), replay)
	}
}
