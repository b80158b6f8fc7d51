package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call the harness made into a layer. Spans of one
// scenario cell, sweep id or round trip share a trace id; the parent is
// the harness span that caused the call (0 for a root).
type span struct {
	TraceID  int    `json:"trace_id"`
	SpanID   int    `json:"span_id"`
	ParentID int    `json:"parent_id"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced run pays one nil check per harness call.
type tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	spans  []span
	traces int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newTrace returns a fresh trace id.
func (t *tracer) newTrace() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.traces++
	return t.traces
}

// start opens a span and returns its id and the function that closes it.
func (t *tracer) start(trace, parent int, name string) (int, func()) {
	if t == nil {
		return 0, func() {}
	}
	begin := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{TraceID: trace, SpanID: len(t.spans) + 1, ParentID: parent, Name: name, StartNS: begin})
	id := len(t.spans)
	t.mu.Unlock()
	return id, func() {
		end := time.Since(t.epoch).Nanoseconds()
		t.mu.Lock()
		t.spans[id-1].EndNS = end
		t.mu.Unlock()
	}
}

// write stores the spans as one JSON array under dir.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	return path, os.WriteFile(path, data, 0o644)
}
