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

// Collector accumulates completed responses across servers. Under a
// sharded network every server reports into its own shard's bucket, so
// completion callbacks running in parallel window segments never share
// memory; Responses merges the buckets back into global completion
// order. The zero value is ready to use.
type Collector struct {
	buckets []collBucket
	merged  []Response
	tap     func(Response)
}

// Tap registers fn to observe every completion as it is recorded — the
// live-streaming hook the experiment service uses to watch a fleet's
// progress while the run is still simulating. One tap per collector;
// set it before the simulation starts (like bucket growth, only
// single-threaded phases may install it). fn runs on whichever shard
// goroutine records the completion, so it must be safe for concurrent
// invocation and must never touch simulation state.
func (c *Collector) Tap(fn func(Response)) { c.tap = fn }

// collBucket is one shard's private slice of the collector. scheduled
// and completed are kept separately (incremented on possibly different
// shards for RPC chains) so Pending never needs a shared counter.
type collBucket struct {
	responses []Response
	scheduled int
	completed int
}

// bucket returns shard sh's bucket, growing the table as needed. Only
// single-threaded phases (experiment setup, sync events) may grow it;
// parallel completion callbacks index into pre-existing buckets.
func (c *Collector) bucket(sh int) *collBucket {
	for len(c.buckets) <= sh {
		c.buckets = append(c.buckets, collBucket{})
	}
	return &c.buckets[sh]
}

// Add records a completed response into the default (shard 0) bucket.
// Callers on other shards must go through a Server, which records into
// its own shard's bucket.
func (c *Collector) Add(label string, bytes int, res tcp.TrainResult) {
	c.notify(c.bucket(0).add(label, bytes, res))
}

// notify forwards a just-recorded response to the tap, if one is set.
func (c *Collector) notify(r Response) {
	if c.tap != nil {
		c.tap(r)
	}
}

// Reserve pre-grows the bucket table through shard sh without recording
// anything, so later parallel-segment Record calls only index. Like all
// bucket growth it is legal only in single-threaded phases.
func (c *Collector) Reserve(sh int) { c.bucket(sh) }

// NoteScheduled counts one scheduled-but-not-yet-completed response on
// shard sh, growing the bucket table as needed — callable only from
// single-threaded phases (setup, sync events). Record reports the
// completion. The hybrid fleet uses this pair directly because its
// releases are not bound to a Server.
func (c *Collector) NoteScheduled(sh int) {
	c.bucket(sh).scheduled++
}

// Record reports a completed response on shard sh, previously announced
// by NoteScheduled. Unlike NoteScheduled it may run inside a parallel
// window segment: it indexes the pre-grown bucket table and touches only
// shard sh's bucket.
func (c *Collector) Record(sh int, label string, bytes int, res tcp.TrainResult) {
	b := &c.buckets[sh]
	b.completed++
	c.notify(b.add(label, bytes, res))
}

func (b *collBucket) add(label string, bytes int, res tcp.TrainResult) Response {
	r := Response{
		Label:     label,
		Bytes:     bytes,
		Released:  res.Released,
		Completed: res.Completed,
	}
	if b.responses == nil {
		// One allocation for everything announced so far; a response
		// scheduled later (or on another shard's bucket) grows it.
		b.responses = make([]Response, 0, b.scheduled)
	}
	b.responses = append(b.responses, r)
	return r
}

// Responses returns all completed responses in completion order (shared
// slice; callers must not mutate it). Per-bucket slices are already in
// completion order — callbacks fire at their completion instants — so a
// k-way merge on Completed (ties broken by shard index) reconstructs the
// global order the unsharded simulation would have appended in.
func (c *Collector) Responses() []Response {
	total := 0
	for i := range c.buckets {
		total += len(c.buckets[i].responses)
	}
	if len(c.merged) == total {
		return c.merged
	}
	if len(c.buckets) == 1 {
		c.merged = c.buckets[0].responses
		return c.merged
	}
	idx := make([]int, len(c.buckets))
	merged := make([]Response, 0, total)
	for len(merged) < total {
		best := -1
		for i := range c.buckets {
			if idx[i] >= len(c.buckets[i].responses) {
				continue
			}
			if best < 0 || c.buckets[i].responses[idx[i]].Completed <
				c.buckets[best].responses[idx[best]].Completed {
				best = i
			}
		}
		merged = append(merged, c.buckets[best].responses[idx[best]])
		idx[best]++
	}
	c.merged = merged
	return merged
}

// Pending returns the number of scheduled responses not yet completed.
// Under sharding it is exact only between events of a quiescent group —
// experiment watch loops read it from sync events, where every shard has
// halted at the same instant.
func (c *Collector) Pending() int {
	n := 0
	for i := range c.buckets {
		n += c.buckets[i].scheduled - c.buckets[i].completed
	}
	return n
}

// CompletionTimes returns the distribution of completion times, filtered
// by filter (nil keeps everything).
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
	shard     int
}

// NewServer wraps conn; completions are reported to collector under
// label. sched must be the scheduler owning the connection's sender
// (conn.Scheduler()) so releases and completion records stay on the
// sender's shard. Creating a server pre-grows the collector's bucket
// table, which must only happen in single-threaded phases — construct
// all servers before running the group.
func NewServer(sched *sim.Scheduler, conn *tcp.Conn, label string, collector *Collector) *Server {
	s := &Server{sched: sched, conn: conn, label: label, collector: collector,
		shard: sched.ShardIndex()}
	collector.bucket(s.shard)
	return s
}

// Conn returns the underlying connection.
func (s *Server) Conn() *tcp.Conn { return s.conn }

// Label returns the server's collector label.
func (s *Server) Label() string { return s.label }

// ScheduleResponse releases a response of the given size at the given
// instant.
func (s *Server) ScheduleResponse(at sim.Time, bytes int) error {
	s.collector.bucket(s.shard).scheduled++
	_, err := s.sched.At(at, func() {
		s.conn.SendTrain(bytes, func(res tcp.TrainResult) {
			// Resolve the bucket at completion time: the table may have
			// grown between scheduling and completion (it never grows once
			// the run starts).
			b := &s.collector.buckets[s.shard]
			b.completed++
			s.collector.notify(b.add(s.label, bytes, res))
		})
	})
	if err != nil {
		s.collector.bucket(s.shard).scheduled--
		return fmt.Errorf("schedule response at %v: %w", at, err)
	}
	return nil
}

// ScheduleTrains releases a whole workload schedule.
func (s *Server) ScheduleTrains(trains []workload.Train) error {
	for _, tr := range trains {
		if err := s.ScheduleResponse(tr.At, tr.Bytes); err != nil {
			return err
		}
	}
	return nil
}

// StartBackgroundFlow releases an effectively endless train at the given
// instant: the paper's "LPTs running throughout the test". Its completion
// is not reported to the collector; measure it by throughput instead.
func (s *Server) StartBackgroundFlow(at sim.Time, bytes int) error {
	_, err := s.sched.At(at, func() { s.conn.SendTrain(bytes, nil) })
	if err != nil {
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
}

// NewFleet builds one persistent connection per sender.
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
	}
	per := cfg.ConnsPerSender
	if per <= 0 {
		per = 1
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
			conn, err := tcp.NewConn(c)
			if err != nil {
				return nil, fmt.Errorf("fleet conn %d: %w", i, err)
			}
			f.Conns = append(f.Conns, conn)
			label := fmt.Sprintf("%s%d", cfg.LabelPrefix, i+1)
			f.Servers = append(f.Servers, NewServer(conn.Scheduler(), conn, label, f.Collector))
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
