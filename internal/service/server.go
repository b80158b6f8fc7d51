package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tcptrim/internal/cellcache"
	"tcptrim/internal/experiment"
)

// Job states. A job is terminal in done, failed, or canceled.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// Job is one submitted run and its lifecycle. A Server holds a *Job only
// while the run is queued or running; a finished run is a record in its
// job table, and handlers read value copies of either.
type Job struct {
	ID     string  `json:"id"`
	Spec   RunSpec `json:"spec"`
	State  string  `json:"state"`
	Error  string  `json:"error,omitempty"`
	Cached bool    `json:"cached"`

	seq    int64 // submission order
	output []byte
	cancel context.CancelFunc
	stream *stream
}

// Config tunes a Server.
type Config struct {
	// Workers is the number of concurrent simulations (0 = GOMAXPROCS/2,
	// minimum 1).
	Workers int
	// CacheDir persists the store — whole runs and sweep cells — across
	// restarts ("" = memory only).
	CacheDir string
	// CodeVersion is the version /v1/stats reports ("" =
	// cellcache.CodeVersion()). It labels the service only: every entry
	// in the store is keyed by the running build's own version.
	CodeVersion string
	// StreamMinGap throttles high-frequency SSE events per metric
	// (0 = DefaultStreamMinGap; negative = no throttle).
	StreamMinGap time.Duration
	// QueueDepth bounds jobs waiting for a worker (0 = 1024). A full
	// queue rejects new submissions with 503 rather than blocking.
	QueueDepth int
}

// DefaultStreamMinGap is the per-metric SSE throttle: at most one
// "sample"/"responses" event per metric per gap.
const DefaultStreamMinGap = 50 * time.Millisecond

// Server is the experiment service: REST control plane, SSE streams,
// result store, worker pool. It implements http.Handler.
type Server struct {
	mux         *http.ServeMux
	store       *cellcache.Store
	codeVersion string
	minGap      time.Duration

	mu   sync.Mutex
	jobs jobTable
	seq  int64

	queue   chan *Job
	quit    chan struct{}
	wg      sync.WaitGroup
	baseCtx context.Context
	stop    context.CancelFunc

	closing     atomic.Bool
	simulations atomic.Int64
	cacheHits   atomic.Int64
}

// New builds a Server and starts its workers.
func New(cfg Config) (*Server, error) {
	// One store holds whole runs and sweep cells: a repeated spec is one
	// lookup, and a new one still skips every cell some earlier run (of
	// any runner, in trimsvc or trimsim) already computed.
	store, err := cellcache.Open(cfg.CacheDir)
	if err != nil {
		return nil, err
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0) / 2
		if workers < 1 {
			workers = 1
		}
	}
	version := cfg.CodeVersion
	if version == "" {
		version = cellcache.CodeVersion()
	}
	minGap := cfg.StreamMinGap
	switch {
	case minGap == 0:
		minGap = DefaultStreamMinGap
	case minGap < 0:
		minGap = 0
	}
	depth := cfg.QueueDepth
	if depth <= 0 {
		depth = 1024
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		store:       store,
		codeVersion: version,
		minGap:      minGap,
		jobs:        newJobTable(),
		queue:       make(chan *Job, depth),
		quit:        make(chan struct{}),
		baseCtx:     ctx,
		stop:        cancel,
	}
	s.routes()
	for i := 0; i < workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /v1/runners", s.handleRunners)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("POST /v1/runs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/runs", s.handleList)
	s.mux.HandleFunc("GET /v1/runs/{id}", s.handleGet)
	s.mux.HandleFunc("GET /v1/runs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /v1/runs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("DELETE /v1/runs/{id}", s.handleCancel)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// --- handlers ---

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// handleRunners lists the registry: the same ids, descriptions, and
// honored-option schemas trimsim -list prints.
func (s *Server) handleRunners(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"runners": experiment.Runners()})
}

// handleStats exposes the counters the CI cache assertion reads:
// simulations is the number of actual experiment.Run invocations, which
// a cache hit must NOT increment.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs, _ := s.jobs.counts()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"codeVersion":   s.codeVersion,
		"jobs":          jobs,
		"simulations":   s.simulations.Load(),
		"cacheHits":     s.cacheHits.Load(),
		"cachedResults": s.store.Runs().Held, // whole runs in the store's memory tier
		// Cell-grained counters: cellMisses is the number of sweep cells
		// actually simulated, cellHits the number answered from the store.
		"cellHits":    s.store.Hits(),
		"cellMisses":  s.store.Misses(),
		"cachedCells": s.store.Len(),
	})
}

// maxSpecBytes bounds a POST /v1/runs body. The largest valid spec — every
// option set, long axis lists — is a few hundred bytes; anything near the
// bound is not a spec.
const maxSpecBytes = 1 << 20

// decodeSpec reads a POST /v1/runs body: one JSON object of at most
// maxSpecBytes with no field RunSpec does not have.
func decodeSpec(w http.ResponseWriter, body io.ReadCloser) (RunSpec, error) {
	var spec RunSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, body, maxSpecBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(&spec)
	return spec, err
}

// handleSubmit validates a spec, answers from the store when the whole
// run is already there, and queues a simulation otherwise. An oversized body
// is refused before anything is recorded.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.closing.Load() {
		writeError(w, http.StatusServiceUnavailable, "service is shutting down")
		return
	}
	spec, err := decodeSpec(w, r.Body)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, "spec larger than %d bytes", tooLarge.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, "bad spec: %v", err)
		return
	}
	if err := spec.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	opts := spec.Options()
	opts.Cache = s.store
	output, cached := experiment.StoredRun(spec.Runner, opts)
	if cached {
		// Same spec, same code version: the result is already exact. The
		// job goes straight into the table as a finished record.
		job := Job{Spec: spec, Cached: true, output: output, stream: storedStream}
		s.mu.Lock()
		s.seq++
		job.ID, job.seq = formatID(s.seq), s.seq
		s.endLocked(&job, StateDone, "")
		s.mu.Unlock()
		s.cacheHits.Add(1)
		writeJSON(w, http.StatusCreated, job)
		return
	}

	// The reply is a copy taken before the enqueue: once a worker owns the
	// job it writes State under s.mu while this handler is still encoding.
	job := &Job{Spec: spec, State: StateQueued, stream: &stream{}}
	s.mu.Lock()
	s.seq++
	job.ID, job.seq = formatID(s.seq), s.seq
	s.jobs.live[job.seq] = job
	snap := *job
	s.mu.Unlock()
	select {
	case s.queue <- job:
		writeJSON(w, http.StatusCreated, snap)
	default:
		s.finishJob(job, StateFailed, "run queue is full")
		writeError(w, http.StatusServiceUnavailable, "run queue is full")
	}
}

// lookup copies the job the path names under s.mu, or answers 404; live
// is the job itself while it is queued or running.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (job Job, live *Job, ok bool) {
	id := r.PathValue("id")
	s.mu.Lock()
	job, live, ok = s.jobs.lookup(id)
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "no such run %q", id)
	}
	return job, live, ok
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := s.jobs.all()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"runs": jobs})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	if job, _, ok := s.lookup(w, r); ok {
		writeJSON(w, http.StatusOK, job)
	}
}

// handleResult serves the raw result bytes — exactly what trimsim would
// have printed for the same spec.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	job, _, ok := s.lookup(w, r)
	if !ok {
		return
	}
	if job.State != StateDone {
		writeError(w, http.StatusConflict, "run %s is %s, not done", job.ID, job.State)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write(job.output)
}

// handleCancel cancels a queued or running job. Terminal jobs are left
// as they are (204 anyway — cancel is idempotent).
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	job, live, ok := s.lookup(w, r)
	if !ok {
		return
	}
	switch job.State {
	case StateQueued:
		// The worker skips jobs already terminal when it dequeues them.
		s.finishJob(live, StateCanceled, "canceled by client")
	case StateRunning:
		if job.cancel != nil {
			job.cancel() // the worker observes ctx and finishes the job
		}
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleEvents streams the job's events as SSE: every event is a JSON
// ProgressEvent (or terminal {"kind":"done"|"error"|"canceled"|
// "shutdown"}) in a data: line. The replay buffer means a subscriber
// attaching after completion still sees the whole (bounded) history.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	job, _, ok := s.lookup(w, r)
	if !ok {
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)

	replay, live, cancel := job.stream.subscribe()
	defer cancel()
	for _, data := range replay {
		fmt.Fprintf(w, "data: %s\n\n", data)
	}
	if live == nil {
		// The stream closed before we came: the replay ended with the
		// terminal event, and unflushed, a short reply goes out in one
		// write with its Content-Length instead of chunked.
		return
	}
	flusher.Flush()
	for {
		select {
		case <-r.Context().Done():
			return
		case data, ok := <-live:
			if !ok {
				return
			}
			fmt.Fprintf(w, "data: %s\n\n", data)
			flusher.Flush()
		}
	}
}

// --- job execution ---

// doneEvent ends the stream of every run that completes; streams only
// read it, so all of them share one copy.
var doneEvent = terminalEvent("done", "")

// storedStream is the stream of every job answered from the store: its
// replay is doneEvent alone and, closed, it is never written again.
var storedStream = &stream{buf: [][]byte{doneEvent}, closed: true}

// terminalEvent encodes the end-of-stream event.
func terminalEvent(kind, msg string) []byte {
	ev := map[string]string{"kind": kind}
	if msg != "" {
		ev["error"] = msg
	}
	data, _ := json.Marshal(ev)
	return data
}

func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.quit:
			return
		case job := <-s.queue:
			s.runJob(job)
		}
	}
}

// runJob executes one queued job to a terminal state.
func (s *Server) runJob(job *Job) {
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	s.mu.Lock()
	if job.State != StateQueued { // canceled while waiting
		s.mu.Unlock()
		return
	}
	job.State = StateRunning
	job.cancel = cancel
	s.mu.Unlock()

	opts := job.Spec.Options()
	opts.Context = ctx
	opts.Cache = s.store
	opts.Progress = newSink(job.stream, s.minGap)
	var buf bytes.Buffer
	s.simulations.Add(1)
	err := experiment.Run(job.Spec.Runner, opts, &buf)
	switch {
	case err == nil:
		s.mu.Lock()
		job.output = buf.Bytes()
		s.endLocked(job, StateDone, "")
		s.mu.Unlock()
		job.stream.close(doneEvent)
	case errors.Is(err, context.Canceled) && s.closing.Load():
		s.finishJob(job, StateCanceled, "service shut down before completion")
	case errors.Is(err, context.Canceled):
		s.finishJob(job, StateCanceled, "canceled by client")
	default:
		s.finishJob(job, StateFailed, err.Error())
	}
}

// finishJob moves a job to a terminal state and closes its stream. The
// terminal SSE kind matches the state ("shutdown" when the service, not
// the client, ended the run).
func (s *Server) finishJob(job *Job, state, msg string) {
	s.mu.Lock()
	if job.State == StateDone || job.State == StateFailed || job.State == StateCanceled {
		s.mu.Unlock()
		return
	}
	s.endLocked(job, state, msg)
	s.mu.Unlock()
	kind := "error"
	if state == StateCanceled {
		kind = "canceled"
		if s.closing.Load() {
			kind = "shutdown"
		}
	}
	job.stream.close(terminalEvent(kind, msg))
}

// endLocked moves a job that is not yet terminal to a terminal state and
// turns it into a finished record; the table forgets the job that ended
// longest ago once more than maxTerminalJobs have. The *Job stays
// terminal for the worker or queue that still holds it. Caller holds s.mu.
func (s *Server) endLocked(job *Job, state, msg string) {
	job.State, job.Error, job.cancel = state, msg, nil
	s.jobs.end(job)
}

// --- shutdown ---

// Shutdown drains the service: new submissions are refused, queued jobs
// are canceled, and running jobs get until ctx's deadline to finish on
// their own before their contexts are canceled (runners stop at the
// next cell boundary). Every open SSE stream receives a terminal event.
// The store needs no flush: every entry reached disk when it was made.
func (s *Server) Shutdown(ctx context.Context) error {
	s.closing.Store(true)
	close(s.quit)
	// Workers race s.quit against the queue; drain whatever they leave.
	for {
		select {
		case job := <-s.queue:
			s.finishJob(job, StateCanceled, "service shut down before start")
			continue
		default:
		}
		break
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		s.stop() // deadline passed: interrupt in-flight runs
		<-done
		err = ctx.Err()
	}
	s.stop()
	// Workers are gone; any job still non-terminal (queued jobs a worker
	// dequeued but skipped, etc.) gets its terminal event now.
	s.mu.Lock()
	var open []*Job
	for _, job := range s.jobs.live {
		open = append(open, job)
	}
	s.mu.Unlock()
	for _, job := range open {
		s.finishJob(job, StateCanceled, "service shut down before completion")
	}
	return err
}
