package service

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"tcptrim/internal/experiment"
)

func TestSpecKeyCanonical(t *testing.T) {
	a := RunSpec{Runner: "fig4"}
	b := RunSpec{Runner: "fig4", Seed: 0, Reps: 0} // zero values omit from the encoding
	if a.Key("v1") != b.Key("v1") {
		t.Error("equivalent specs hash differently")
	}
	if a.Key("v1") == a.Key("v2") {
		t.Error("code version does not roll the key")
	}
	if a.Key("v1") == (RunSpec{Runner: "fig4", Seed: 2}).Key("v1") {
		t.Error("seed change does not roll the key")
	}
	if a.Key("v1") == (RunSpec{Runner: "fig6"}).Key("v1") {
		t.Error("runner change does not roll the key")
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

func TestCachePersistsAcrossProcesses(t *testing.T) {
	dir := t.TempDir()
	c1, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := RunSpec{Runner: "fig4"}
	key := spec.Key("v1")
	if err := c1.Put(key, spec, []byte("result bytes")); err != nil {
		t.Fatal(err)
	}
	if err := c1.SaveIndex(); err != nil {
		t.Fatal(err)
	}

	// A "new process": fresh cache over the same directory.
	c2, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c2.Get(key)
	if !ok || string(got) != "result bytes" {
		t.Fatalf("Get after reload = %q, %t", got, ok)
	}
	if _, ok := c2.Get(spec.Key("v2")); ok {
		t.Error("different code version hit the cache")
	}

	// An index entry whose result file vanished is a miss, not an error.
	if err := os.Remove(filepath.Join(dir, key+".out")); err != nil {
		t.Fatal(err)
	}
	c3, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c3.Get(key); ok {
		t.Error("hit with the result file missing")
	}
}

func TestStreamReplayAndFanout(t *testing.T) {
	st := newStream()
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
	st := newStream()
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
