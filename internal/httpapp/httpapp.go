// Package httpapp models the paper's HTTP workload layer: persistent TCP
// connections from back-end servers to a front-end, carrying scheduled
// response packet trains (the ON/OFF pattern of Section II.A), plus the
// collector that records per-response completion times for the
// experiments' ACT/ARCT metrics.
package httpapp

import (
	"fmt"
	"time"

	"tcptrim/internal/metrics"
	"tcptrim/internal/netsim"
	"tcptrim/internal/sim"
	"tcptrim/internal/tcp"
	"tcptrim/internal/workload"
)

// Response records the lifecycle of one HTTP response (packet train).
type Response struct {
	// Label identifies the sending server / connection group.
	Label string
	// Bytes is the response payload size.
	Bytes int
	// Released / Completed bracket the sender-observed transfer.
	Released  sim.Time
	Completed sim.Time
}

// CompletionTime is the sender-observed response completion time.
func (r Response) CompletionTime() time.Duration {
	return r.Completed.Sub(r.Released)
}

// Collector accumulates completed responses across servers. The zero
// value keeps a Response record of every completion, in completion order,
// for a runner that reads labels, sizes or release instants; StreamTo
// makes it keep none. Either way it counts completions and pending
// responses and remembers the latest completion instant.
type Collector struct {
	responses []Response
	// stream is set by StreamTo: no records, completion times go to fct
	// (or nowhere when fct is nil).
	stream    bool
	fct       *metrics.Distribution
	scheduled int
	completed int // Record calls, the other side of Pending
	count     int // every completion added, Record or Add
	last      sim.Time
	tap       func(Response)
}

// StreamTo makes c keep no per-response record: each completion time goes
// into fct as it happens. fct receives the values CompletionTimes(nil)
// would add after the run, in the same order, so its mean, percentiles
// and sketch come out bit for bit the same. fct reserves its exact-sample
// storage once, at the first completion, for every response scheduled by
// then. A nil fct keeps only Count, Pending and Last. Call it before the
// first completion.
func (c *Collector) StreamTo(fct *metrics.Distribution) { c.stream, c.fct = true, fct }

// Tap registers fn to observe every completion as it is recorded — the
// live-streaming hook the experiment service uses to watch a fleet's
// progress while the run is still simulating. One tap per collector; set
// it before the simulation starts. fn runs inside the simulation's event
// loop and must never touch simulation state.
func (c *Collector) Tap(fn func(Response)) { c.tap = fn }

// Add records a completed response.
func (c *Collector) Add(label string, bytes int, res tcp.TrainResult) {
	r := c.add(label, bytes, res)
	if c.tap != nil {
		c.tap(r)
	}
}

// add records a completed response without showing it to the tap.
func (c *Collector) add(label string, bytes int, res tcp.TrainResult) Response {
	r := Response{
		Label:     label,
		Bytes:     bytes,
		Released:  res.Released,
		Completed: res.Completed,
	}
	first := c.count == 0
	c.count++
	if r.Completed > c.last {
		c.last = r.Completed
	}
	switch {
	case !c.stream:
		if first {
			// One allocation for everything announced so far; a response
			// scheduled later grows it.
			c.responses = make([]Response, 0, c.scheduled)
		}
		c.responses = append(c.responses, r)
	case c.fct != nil:
		if first {
			c.fct.Reserve(c.scheduled)
		}
		c.fct.AddDuration(r.CompletionTime())
	}
	return r
}

// NoteScheduled counts one scheduled-but-not-yet-completed response;
// Record reports its completion. The hybrid fleet uses this pair directly
// because its releases are not bound to a Server.
func (c *Collector) NoteScheduled() { c.scheduled++ }

// Record reports a completed response previously announced by
// NoteScheduled.
func (c *Collector) Record(label string, bytes int, res tcp.TrainResult) {
	c.completed++
	c.Add(label, bytes, res)
}

// Responses returns all completed responses in completion order (shared
// slice; callers must not mutate it). A streaming collector has none and
// panics rather than answer as if nothing completed.
func (c *Collector) Responses() []Response {
	if c.stream {
		panic("httpapp: Responses of a streaming collector")
	}
	return c.responses
}

// Count returns the number of completed responses.
func (c *Collector) Count() int { return c.count }

// Last returns the latest completion instant (0 before the first).
func (c *Collector) Last() sim.Time { return c.last }

// Pending returns the number of scheduled responses not yet completed.
func (c *Collector) Pending() int { return c.scheduled - c.completed }

// CompletionTimes returns the distribution of completion times, filtered
// by filter (nil keeps everything). It reads the records, so a streaming
// collector panics here too.
func (c *Collector) CompletionTimes(filter func(Response) bool) *metrics.Distribution {
	var d metrics.Distribution
	for _, r := range c.Responses() {
		if filter == nil || filter(r) {
			d.AddDuration(r.CompletionTime())
		}
	}
	return &d
}

// ByLabel returns a filter matching one label.
func ByLabel(label string) func(Response) bool {
	return func(r Response) bool { return r.Label == label }
}

// BySizeRange returns a filter keeping responses with lo ≤ Bytes ≤ hi
// (the Fig. 13 "64 KB to 256 KB" sample selection).
func BySizeRange(lo, hi int) func(Response) bool {
	return func(r Response) bool { return r.Bytes >= lo && r.Bytes <= hi }
}

// Server drives one persistent connection: responses scheduled on it are
// appended to the connection's byte stream at their release times.
type Server struct {
	sched     *sim.Scheduler
	conn      *tcp.Conn
	label     string
	collector *Collector

	rq     *releaseQueue         // shared by a Fleet's servers; a standalone server's own, made on first use
	idx    int32                 // position in rq.servers
	sink   int32                 // label and collector in rq.sinks; noSink until first used
	doneFn func(tcp.TrainResult) // s.done, bound once
	// Sinks of the responses in flight, in release order and run-length
	// encoded: the connection completes its trains in the order they were
	// appended, and the trains of one schedule share a sink.
	inFlight []sinkRun
	head     int
}

// sinkRun is n consecutive responses in flight whose completions go to
// one sink.
type sinkRun struct {
	sink, n int32
}

// NewServer wraps conn, whose releases sched (conn.Scheduler()) runs;
// completions are reported to collector under label.
func NewServer(sched *sim.Scheduler, conn *tcp.Conn, label string, collector *Collector) *Server {
	s := new(Server)
	s.init(sched, conn, label, collector)
	return s
}

// init sets up s in place: the one initializer of NewServer and NewFleet.
func (s *Server) init(sched *sim.Scheduler, conn *tcp.Conn, label string, collector *Collector) {
	*s = Server{sched: sched, conn: conn, label: label, collector: collector, sink: noSink}
	s.doneFn = s.done
}

// release is a response waiting for its instant in a releaseQueue: which
// server sends it, where its completion is reported, its size. No
// pointers, so a fleet's waiting responses are never scanned by the
// collector.
type release struct {
	server int32
	sink   int32 // index into releaseQueue.sinks, or unreported
	bytes  int
}

const (
	noSink     = int32(-1) // Server.sink not yet interned
	unreported = int32(-2) // a background flow: completion goes nowhere
)

// sink is where a response's completion is recorded.
type sink struct {
	label string
	coll  *Collector
}

// releaseQueue holds every response its servers have scheduled and not yet
// released in one sim.Releases queue: a ScheduleTrains schedule as one
// run, any other response as one value.
type releaseQueue struct {
	q       *sim.Releases[release]
	servers []*Server
	sinks   []sink
	sinkIdx map[sink]int32
}

func newReleaseQueue(sched *sim.Scheduler) *releaseQueue {
	rq := &releaseQueue{sinkIdx: make(map[sink]int32)}
	rq.q = sim.NewReleases(sched, rq.fire)
	return rq
}

// add makes srv one of rq's servers.
func (rq *releaseQueue) add(srv *Server) {
	srv.rq, srv.idx = rq, int32(len(rq.servers))
	rq.servers = append(rq.servers, srv)
}

// intern returns the index of (label, coll) in the sink table.
func (rq *releaseQueue) intern(label string, coll *Collector) int32 {
	k := sink{label, coll}
	i, ok := rq.sinkIdx[k]
	if !ok {
		i = int32(len(rq.sinks))
		rq.sinks = append(rq.sinks, k)
		rq.sinkIdx[k] = i
	}
	return i
}

// fire releases r: it appends the train to its server's connection.
func (rq *releaseQueue) fire(r release) {
	srv := rq.servers[r.server]
	switch {
	case r.sink == unreported:
		srv.conn.SendTrain(r.bytes, nil)
	case r.bytes <= 0:
		// SendTrain completes an empty train on the spot.
		srv.conn.SendTrain(r.bytes, nil)
		now := srv.sched.Now()
		rq.record(r.sink, tcp.TrainResult{Released: now, Completed: now, Bytes: r.bytes})
	default:
		if k := len(srv.inFlight); k > srv.head && srv.inFlight[k-1].sink == r.sink {
			srv.inFlight[k-1].n++
		} else {
			srv.inFlight = append(srv.inFlight, sinkRun{sink: r.sink, n: 1})
		}
		srv.conn.SendTrain(r.bytes, srv.doneFn)
	}
}

func (rq *releaseQueue) record(i int32, res tcp.TrainResult) {
	k := rq.sinks[i]
	k.coll.Record(k.label, res.Bytes, res)
}

// done reports the completion of the oldest response in flight.
func (s *Server) done(res tcp.TrainResult) {
	f := &s.inFlight[s.head]
	i := f.sink
	if f.n--; f.n == 0 {
		if s.head++; s.head == len(s.inFlight) {
			s.inFlight, s.head = s.inFlight[:0], 0
		}
	}
	s.rq.record(i, res)
}

// queue returns the server's release queue, making a standalone server's.
func (s *Server) queue() *releaseQueue {
	if s.rq == nil {
		newReleaseQueue(s.sched).add(s)
	}
	return s.rq
}

// Conn returns the underlying connection.
func (s *Server) Conn() *tcp.Conn { return s.conn }

// Label returns the server's collector label.
func (s *Server) Label() string { return s.label }

// ScheduleResponse releases a response of the given size at the given
// instant.
func (s *Server) ScheduleResponse(at sim.Time, bytes int) error {
	rq := s.queue()
	if s.sink == noSink {
		s.sink = rq.intern(s.label, s.collector)
	}
	return s.schedule(at, bytes, s.sink)
}

// ScheduleResponseAs is ScheduleResponse reporting the completion to coll
// under label instead of the server's own.
func (s *Server) ScheduleResponseAs(at sim.Time, bytes int, label string, coll *Collector) error {
	return s.schedule(at, bytes, s.queue().intern(label, coll))
}

func (s *Server) schedule(at sim.Time, bytes int, sink int32) error {
	k := s.rq.sinks[sink]
	k.coll.NoteScheduled()
	if err := s.rq.q.Push(at, release{server: s.idx, sink: sink, bytes: bytes}); err != nil {
		k.coll.scheduled--
		return fmt.Errorf("schedule response at %v: %w", at, err)
	}
	return nil
}

// ScheduleTrains releases a whole workload schedule, exactly as a
// ScheduleResponse per train, in order, would: a train due before the
// current instant stops it with that call's error, the trains before it
// scheduled. The release queue keeps trains as one run and reads each
// train when it is released, so the caller must not modify the slice
// afterwards.
func (s *Server) ScheduleTrains(trains []workload.Train) error {
	rq := s.queue()
	if len(trains) == 0 {
		return nil
	}
	if s.sink == noSink {
		s.sink = rq.intern(s.label, s.collector)
	}
	n, err := rq.q.PushRun(&trainRun{trains: trains, server: s.idx, sink: s.sink})
	rq.sinks[s.sink].coll.scheduled += n
	if err != nil {
		return fmt.Errorf("schedule response at %v: %w", trains[n].At, err)
	}
	return nil
}

// trainRun is a ScheduleTrains schedule waiting in a release queue: the
// caller's trains, each released on one server with one sink.
type trainRun struct {
	trains       []workload.Train
	server, sink int32
}

func (r *trainRun) Len() int          { return len(r.trains) }
func (r *trainRun) At(i int) sim.Time { return r.trains[i].At }
func (r *trainRun) Value(i int) release {
	return release{server: r.server, sink: r.sink, bytes: r.trains[i].Bytes}
}

// StartBackgroundFlow releases an effectively endless train at the given
// instant: the paper's "LPTs running throughout the test". Its completion
// is not reported to the collector; measure it by throughput instead.
func (s *Server) StartBackgroundFlow(at sim.Time, bytes int) error {
	if err := s.queue().q.Push(at, release{server: s.idx, sink: unreported, bytes: bytes}); err != nil {
		return fmt.Errorf("schedule background flow at %v: %w", at, err)
	}
	return nil
}

// StartChunkedFlow keeps the connection busy from start to stop by
// feeding fixed-size chunks with two always outstanding (double
// buffering, so the send buffer never drains and no ON/OFF gap appears).
// Used for the convergence test's long flows that must stop at a given
// instant. Completions are not reported to the collector.
func (s *Server) StartChunkedFlow(start, stop sim.Time, chunkBytes int) error {
	var refill func(tcp.TrainResult)
	refill = func(tcp.TrainResult) {
		if s.sched.Now() >= stop {
			return
		}
		s.conn.SendTrain(chunkBytes, refill)
	}
	_, err := s.sched.At(start, func() {
		s.conn.SendTrain(chunkBytes, refill)
		s.conn.SendTrain(chunkBytes, refill)
	})
	if err != nil {
		return fmt.Errorf("schedule chunked flow at %v: %w", start, err)
	}
	return nil
}

// Fleet wires a group of sender hosts to a single front-end with one
// persistent connection each, a common base configuration, and a fresh
// congestion-control policy per connection.
type Fleet struct {
	Servers   []*Server
	Conns     []*tcp.Conn
	Collector *Collector
	frontEnd  *tcp.Stack
	rq        *releaseQueue // shared by every server
}

// FleetConfig configures NewFleet.
type FleetConfig struct {
	// Senders are the back-end hosts; FrontEnd receives every response.
	Senders  []*netsim.Host
	FrontEnd *netsim.Host
	// ConnsPerSender opens that many persistent connections per sender
	// host (sharing one transport stack each); 0 means 1, the historical
	// one-connection-per-server shape. Flow ids and labels number
	// globally across hosts.
	ConnsPerSender int
	// NewCC creates the per-connection window policy (nil → Reno).
	NewCC func() tcp.CongestionControl
	// NewRecovery creates the per-connection loss-recovery policy (nil →
	// the Base config's policy, i.e. Classic when Base leaves it unset).
	NewRecovery func() tcp.RecoveryPolicy
	// Base provides shared tcp.Config fields (MinRTO, ECN, LinkRate,
	// windows); Sender/Receiver/Flow/CC are filled per connection.
	Base tcp.Config
	// FirstFlow is the first flow id to assign (sequential after it).
	FirstFlow netsim.FlowID
	// LabelPrefix labels servers "<prefix><index+1>" (default "server").
	LabelPrefix string
	// Recycle, when non-nil, is a fleet whose simulation has ended: its
	// connections' objects are built into anew (tcp.Config.Reuse), in
	// flow order, and neither it nor they may be used again.
	Recycle *Fleet
}

// NewFleet builds ConnsPerSender persistent connections per sender. The
// servers live in one slab, and their labels are cut from one string.
func NewFleet(net *netsim.Network, cfg FleetConfig) (*Fleet, error) {
	if cfg.FrontEnd == nil {
		return nil, fmt.Errorf("httpapp: front end required")
	}
	if cfg.LabelPrefix == "" {
		cfg.LabelPrefix = "server"
	}
	if cfg.FirstFlow == 0 {
		cfg.FirstFlow = 1
	}
	f := &Fleet{
		Collector: &Collector{},
		frontEnd:  tcp.NewStack(net, cfg.FrontEnd),
		rq:        newReleaseQueue(cfg.FrontEnd.Scheduler()),
	}
	per := cfg.ConnsPerSender
	if per <= 0 {
		per = 1
	}
	n := len(cfg.Senders) * per
	servers := make([]Server, n)
	f.Servers = make([]*Server, n)
	f.Conns = make([]*tcp.Conn, n)
	var labels netsim.Names
	size := 0
	for i := 1; i <= n; i++ {
		size += netsim.NameLen(cfg.LabelPrefix, i)
	}
	labels.Grow(size)
	var reuse []*tcp.Conn
	if cfg.Recycle != nil {
		reuse = cfg.Recycle.Conns
	}
	i := 0
	for _, h := range cfg.Senders {
		stack := tcp.NewStack(net, h)
		for k := 0; k < per; k++ {
			c := cfg.Base
			c.Sender = stack
			c.Receiver = f.frontEnd
			c.Flow = cfg.FirstFlow + netsim.FlowID(i)
			if cfg.NewCC != nil {
				c.CC = cfg.NewCC()
			}
			if cfg.NewRecovery != nil {
				c.Recovery = cfg.NewRecovery()
			}
			if i < len(reuse) {
				c.Reuse = reuse[i]
			}
			conn, err := tcp.NewConn(c)
			if err != nil {
				return nil, fmt.Errorf("fleet conn %d: %w", i, err)
			}
			srv := &servers[i]
			srv.init(conn.Scheduler(), conn, labels.Cut(cfg.LabelPrefix, i+1), f.Collector)
			f.rq.add(srv)
			f.Conns[i], f.Servers[i] = conn, srv
			i++
		}
	}
	return f, nil
}

// FrontEndStack returns the shared receiver stack (for wiring additional
// connections to the same front-end).
func (f *Fleet) FrontEndStack() *tcp.Stack { return f.frontEnd }

// TotalTimeouts sums TCP timeouts across the fleet's connections.
func (f *Fleet) TotalTimeouts() int {
	total := 0
	for _, c := range f.Conns {
		total += c.Stats().Timeouts
	}
	return total
}

// TotalDelivered sums receiver-side delivered bytes across connections.
func (f *Fleet) TotalDelivered() int64 {
	var total int64
	for _, c := range f.Conns {
		total += c.DeliveredBytes()
	}
	return total
}

// RetransBreakdown splits a fleet's retransmissions by what triggered
// them — the paper's core claim is that concurrent trains push recovery
// from fast retransmit into RTO stalls, and this is where that shift is
// measured. Timeout+Fast+Probes == Total; Spurious counts receiver-side
// duplicates (segments retransmitted although the original arrived) and
// Signals counts switch recovery signals consumed (T-RACKs).
type RetransBreakdown struct {
	Total    int
	Timeout  int
	Fast     int
	Probes   int
	Spurious int
	Signals  int
}

// Retransmissions sums the per-trigger retransmission breakdown across
// the fleet's connections.
func (f *Fleet) Retransmissions() RetransBreakdown {
	var b RetransBreakdown
	for _, c := range f.Conns {
		st := c.Stats()
		b.Total += st.RetransSegs
		b.Timeout += st.RTORetransSegs
		b.Fast += st.FastRetransSegs
		b.Probes += st.TLPProbes
		b.Spurious += st.SpuriousRetransSegs
		b.Signals += st.RecoverySignals
	}
	return b
}
