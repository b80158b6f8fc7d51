// Package hybrid is the million-connection scale layer: a fleet of
// persistent HTTP connections that can run at two fidelities. Packet
// fidelity materializes every connection up front (delegating to
// httpapp.Fleet — the historical shape, byte for byte). Hybrid fidelity
// keeps each connection as one 64-byte, pointer-free record in the flow
// store while it is OFF (and a 56-byte one beside it once the flow has met
// loss or ECN), advancing the whole idle population in one chained driver
// event per epoch, and drops to packet level only for
// connections with an ON train: a release materializes the flow into a
// real tcp.Conn (a shell and a hot line recycled through the fleet's
// tcp.Arena, congestion window and RTT estimator inherited from
// the store — TRIM's cross-train window inheritance intact), and the
// driver, which steps at every release and once per epoch while anything
// is materialized, detaches the connections that have gone quiescent
// back into the store. It looks only at connections that ran since its
// previous step (tcp.Arena.DrainTouched), so a step costs what happened,
// not what is live; a flow demoted after its last release also leaves
// its policy slot, objects reset, to the next flow that needs one. What
// is tested byte-identical across fidelities is every packet-fidelity
// runner that honors the fidelity option (TestRunnerGoldens in
// internal/experiment: fig4, fig6 and fig8) and random small fleets
// (FuzzHybridFleetLockstep); plain TCP on the 25-ToR fig8 tree is known to
// differ, pinned as testdata/golden/fig8.hybrid.txt (ROADMAP item 3).
package hybrid

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"

	"tcptrim/internal/httpapp"
	"tcptrim/internal/netsim"
	"tcptrim/internal/sim"
	"tcptrim/internal/tcp"
	"tcptrim/internal/workload"
)

// Fidelity selects how a fleet simulates its connections.
type Fidelity string

const (
	// FidelityPacket materializes every connection at setup; every
	// segment of every flow is simulated. The historical default.
	FidelityPacket Fidelity = "packet"
	// FidelityHybrid keeps OFF-period connections as compact flow-store
	// records and simulates packets only for connections with an active
	// train.
	FidelityHybrid Fidelity = "hybrid"
)

// ParseFidelity resolves a fidelity name; empty means packet.
func ParseFidelity(s string) (Fidelity, error) {
	switch Fidelity(s) {
	case "", FidelityPacket:
		return FidelityPacket, nil
	case FidelityHybrid:
		return FidelityHybrid, nil
	}
	return "", fmt.Errorf("hybrid: unknown fidelity %q (known: %s, %s)",
		s, FidelityPacket, FidelityHybrid)
}

// Names returns the accepted fidelity names.
func Names() []string { return []string{string(FidelityPacket), string(FidelityHybrid)} }

// DefaultEpoch is the hybrid demote-sweep period: how long a quiescent
// connection may stay materialized past its last event before the sweep
// folds it back into the flow store.
const DefaultEpoch = 10 * time.Millisecond

// FleetConfig configures NewFleet. Senders, FrontEnd, NewCC,
// NewRecovery, Base, FirstFlow, and LabelPrefix mean exactly what they
// mean on httpapp.FleetConfig, with one requirement more: NewCC and
// NewRecovery must be pure — every call returns a fresh policy
// equivalent to every other call's. Packet fidelity calls them once per
// flow at set-up; hybrid fidelity when a flow first materializes, unless
// a finished flow has left a policy that has a Recycle method (core.Trim,
// tcp.Reno, every tcp.RecoveryPolicy), which it resets and reuses. A
// factory dealing kinds by call count would make the fidelities differ.
type FleetConfig struct {
	Senders []*netsim.Host
	// ConnsPerSender opens that many flows per sender host; 0 means 1.
	ConnsPerSender int
	FrontEnd       *netsim.Host
	NewCC          func() tcp.CongestionControl
	NewRecovery    func() tcp.RecoveryPolicy
	Base           tcp.Config
	FirstFlow      netsim.FlowID
	LabelPrefix    string
	// Fidelity selects the simulation mode; empty means packet.
	Fidelity Fidelity
	// Epoch is the demote-sweep period; 0 means DefaultEpoch.
	Epoch time.Duration
	// Recycle, when non-nil, is a fleet whose simulation has ended: at
	// packet fidelity, a packet-fidelity one's connections are built into
	// anew, as httpapp.FleetConfig.Recycle's are. Hybrid fidelity ignores
	// it; its arena recycles its own connections.
	Recycle *Fleet
}

// releaseKind discriminates timeline entries. relLast is a flag on top:
// Arm sets it on each flow's last release.
const (
	relResponse = uint8(iota)
	relBackground
	relConn

	relLast = uint8(0x80)
)

// release is one deferred ON event of a flow: 24 bytes and no pointer,
// so a timeline of a million of them is sorted by value and never
// scanned by the collector. What a release reports to or calls lives in
// a side table that ref indexes: Fleet.sinks for relResponse,
// Fleet.connFns for relConn.
type release struct {
	at    sim.Time
	bytes int32
	flow  int32
	ref   int32
	kind  uint8
}

// sink is where a response's completion is recorded. Runners label
// responses per fleet or per flow, so consecutive releases share one.
type sink struct {
	label string
	coll  *httpapp.Collector
}

// flowRec is one flow's hot record in the flow store, valid once
// flagSaved is set (the flow has been materialized and detached at least
// once): the part of a tcp.SavedState that a loss-free flow moves, in 64
// bytes with no pointer, so the collector never scans a store of a million
// of them and a demotion or a materialization touches one cache line. The
// RTT estimator is kept in 32 bits of nanoseconds, the send counters in
// 32 bits (SentSegs and AcksSent also number the flow's packets, which tcp
// packs into 31 bits of every packet ID), and Stats.AckedBytes is not
// kept: a drained flow has had every byte acknowledged, so it is offset.
// The rest — the RTO back-off clock, the SACK rotation and the loss and
// ECN counters — lives in a rareRec that a flow takes the first time any
// of it is nonzero. save refuses a state these widths cannot hold.
type flowRec struct {
	offset     int64
	cwnd       float64
	ssthresh   float64
	lastSendAt sim.Time
	srtt       uint32 // ns
	rttvar     uint32 // ns
	sentSegs   uint32
	acksSent   uint32
	probeSegs  uint32
	// pol is the flow's slot in Fleet.pols plus one; 0 while it holds none.
	pol int32
	// rare is the flow's slot in the store's rare slab plus one; 0 while
	// the flow's rare state has always been zero.
	rare  int32
	flags uint8
}

// rareRec is the state a loss-free flow never moves: 56 bytes with no
// pointer, one lifetime counter of tcp.Stats in each uint32.
type rareRec struct {
	lastRTOAt  sim.Time
	backoff    int32
	sackRotate int32

	timeouts, fastRecoveries, retransSegs, eceSeen, rtoRetransSegs   uint32
	fastRetransSegs, tlpProbes, spuriousRetransSegs, recoverySignals uint32
}

const (
	flagSaved = uint8(1 << iota)
	flagHasSent
	flagRcvCE
	// flagPending: a release of the flow has yet to fire. Set by Arm,
	// cleared when the flow's last release fires; not part of SavedState.
	flagPending
)

func (r *flowRec) saved() bool { return r.flags&flagSaved != 0 }

// rareChunk is how many rare records the slab grows by: 28 KiB, one
// allocation size class.
const rareChunk = 512

// flowStore holds a hot record per flow and the rare records of the flows
// that ever needed one. The rare slab grows in fixed chunks and never
// moves a record, and a flow keeps its slot for the store's life, so a
// flow's rare state costs 56 bytes once, never a copy of the slab.
type flowStore struct {
	recs  []flowRec
	rare  []*[rareChunk]rareRec
	nRare int32
}

// rareOf returns the rare record of a flow that holds a slot.
func (s *flowStore) rareOf(r *flowRec) *rareRec {
	k := r.rare - 1
	return &s.rare[k/rareChunk][k%rareChunk]
}

// save stores a detached flow's state in record i, or leaves the store as
// it was and says why the state does not fit.
func (s *flowStore) save(i int, st tcp.SavedState) error {
	t := &st.Stats
	switch {
	case t.AckedBytes != st.Offset:
		return fmt.Errorf("acked bytes %d differ from offset %d", t.AckedBytes, st.Offset)
	case uint(t.SentSegs) >= 1<<31 || uint(t.AcksSent) >= 1<<31:
		return fmt.Errorf("packet-ID counters (sent segments %d, ACKs %d) reach 2^31", t.SentSegs, t.AcksSent)
	case !fitsUint32(t.Timeouts, t.FastRecoveries, t.RetransSegs, t.ProbeSegs, t.ECESeen,
		t.RTORetransSegs, t.FastRetransSegs, t.TLPProbes, t.SpuriousRetransSegs, t.RecoverySignals):
		return fmt.Errorf("a counter does not fit in 32 bits: %+v", *t)
	case !fitsUint32(int(st.SRTT), int(st.RTTVar)):
		return fmt.Errorf("RTT estimate %d/%d ns does not fit in 32 bits", int64(st.SRTT), int64(st.RTTVar))
	case st.Backoff != int(int32(st.Backoff)) || st.SackRotate != int(int32(st.SackRotate)):
		return fmt.Errorf("back-off %d or SACK rotation %d does not fit in 32 bits", st.Backoff, st.SackRotate)
	}
	r := &s.recs[i]
	rare := rareRec{
		lastRTOAt:  st.LastRTOAt,
		backoff:    int32(st.Backoff),
		sackRotate: int32(st.SackRotate),

		timeouts: uint32(t.Timeouts), fastRecoveries: uint32(t.FastRecoveries),
		retransSegs: uint32(t.RetransSegs), eceSeen: uint32(t.ECESeen),
		rtoRetransSegs: uint32(t.RTORetransSegs), fastRetransSegs: uint32(t.FastRetransSegs),
		tlpProbes: uint32(t.TLPProbes), spuriousRetransSegs: uint32(t.SpuriousRetransSegs),
		recoverySignals: uint32(t.RecoverySignals),
	}
	if r.rare == 0 && rare != (rareRec{}) {
		if s.nRare%rareChunk == 0 {
			s.rare = append(s.rare, new([rareChunk]rareRec))
		}
		s.nRare++
		r.rare = s.nRare
	}
	if r.rare != 0 {
		*s.rareOf(r) = rare
	}
	flags := flagSaved | r.flags&flagPending
	if st.HasSent {
		flags |= flagHasSent
	}
	if st.RcvCE {
		flags |= flagRcvCE
	}
	*r = flowRec{
		offset:     st.Offset,
		cwnd:       st.Cwnd,
		ssthresh:   st.Ssthresh,
		lastSendAt: st.LastSendAt,
		srtt:       uint32(st.SRTT),
		rttvar:     uint32(st.RTTVar),
		sentSegs:   uint32(t.SentSegs),
		acksSent:   uint32(t.AcksSent),
		probeSegs:  uint32(t.ProbeSegs),
		pol:        r.pol,
		rare:       r.rare,
		flags:      flags,
	}
	return nil
}

// fitsUint32 reports whether every value is a valid uint32.
func fitsUint32(vs ...int) bool {
	for _, v := range vs {
		if v < 0 || uint64(v) > math.MaxUint32 {
			return false
		}
	}
	return true
}

// load returns the state record i holds.
func (s *flowStore) load(i int) tcp.SavedState {
	r := &s.recs[i]
	st := tcp.SavedState{
		Offset:     r.offset,
		Cwnd:       r.cwnd,
		Ssthresh:   r.ssthresh,
		SRTT:       time.Duration(r.srtt),
		RTTVar:     time.Duration(r.rttvar),
		HasSent:    r.flags&flagHasSent != 0,
		LastSendAt: r.lastSendAt,
		RcvCE:      r.flags&flagRcvCE != 0,
		Stats:      s.tcpStats(i),
	}
	if r.rare != 0 {
		x := s.rareOf(r)
		st.Backoff = int(x.backoff)
		st.LastRTOAt = x.lastRTOAt
		st.SackRotate = int(x.sackRotate)
	}
	return st
}

// tcpStats returns flow i's lifetime counters (zero before its first
// demotion).
func (s *flowStore) tcpStats(i int) tcp.Stats {
	r := &s.recs[i]
	st := tcp.Stats{
		SentSegs:   int(r.sentSegs),
		ProbeSegs:  int(r.probeSegs),
		AcksSent:   int(r.acksSent),
		AckedBytes: r.offset,
	}
	if r.rare != 0 {
		x := s.rareOf(r)
		st.Timeouts = int(x.timeouts)
		st.FastRecoveries = int(x.fastRecoveries)
		st.RetransSegs = int(x.retransSegs)
		st.ECESeen = int(x.eceSeen)
		st.RTORetransSegs = int(x.rtoRetransSegs)
		st.FastRetransSegs = int(x.fastRetransSegs)
		st.TLPProbes = int(x.tlpProbes)
		st.SpuriousRetransSegs = int(x.spuriousRetransSegs)
		st.RecoverySignals = int(x.recoverySignals)
	}
	return st
}

// policies is what a flow's window inheritance lives in beside its
// record: its congestion-control and recovery objects, held in a slot of
// Fleet.pols from its first release to its last demotion. A free slot
// keeps the objects reset for the next flow (cc nil if it cannot be
// reset), so the slab is as long as the most flows that ever held
// policies at once, not the fleet.
type policies struct {
	cc  tcp.CongestionControl
	rec tcp.RecoveryPolicy
}

// Fleet is a group of persistent connections from sender hosts to one
// front-end, at either fidelity. The scheduling API is the same in both
// modes, so a runner written against Fleet honors a fidelity option with
// no further changes; accessors (Cwnd, Stats, DeliveredBytes) resolve
// through the live connection or the flow store transparently.
type Fleet struct {
	cfg   FleetConfig
	mode  Fidelity
	epoch time.Duration

	// Packet fidelity.
	pkt *httpapp.Fleet

	// Hybrid fidelity.
	net      *netsim.Network
	frontEnd *tcp.Stack
	stacks   []*tcp.Stack // one per sender host
	per      int          // flows per sender
	drv      *sim.Scheduler
	coll     *httpapp.Collector
	store    flowStore
	arena    *tcp.Arena
	initCwnd float64 // resolved Base.InitialCwnd
	// pols holds the policy objects of the flows between their first
	// release and their last demotion (flowRec.pol), and in freePols'
	// slots those finished flows left.
	pols     []policies
	freePols []int32

	timeline []release
	sinks    []sink
	// sinkDone[ref] reports a completion to sinks[ref]; bound by Arm, so
	// that a release allocates no callback.
	sinkDone  []func(tcp.TrainResult)
	connFns   []func(*tcp.Conn)
	stepFn    func()          // f.step, bound once: re-arming must not box it anew
	demoteFn  func(*tcp.Conn) // f.demoteIfQuiescent, bound once likewise
	restoring tcp.SavedState  // what materialize hands NewConn; not kept by it
	nextRel   int
	armed     bool
	liveCount int
	peakLive  int
	evals     int // Quiescent() evaluations made by sweep
	firstErr  error
}

// NewFleet builds the fleet. In packet fidelity every connection exists
// on return; in hybrid fidelity no connection exists until its first
// release fires.
func NewFleet(net *netsim.Network, cfg FleetConfig) (*Fleet, error) {
	mode, err := ParseFidelity(string(cfg.Fidelity))
	if err != nil {
		return nil, err
	}
	if cfg.FrontEnd == nil {
		return nil, fmt.Errorf("hybrid: front end required")
	}
	if cfg.LabelPrefix == "" {
		cfg.LabelPrefix = "server"
	}
	if cfg.FirstFlow == 0 {
		cfg.FirstFlow = 1
	}
	var recycle *httpapp.Fleet
	if cfg.Recycle != nil {
		recycle, cfg.Recycle = cfg.Recycle.pkt, nil // the fleet keeps cfg
	}
	f := &Fleet{cfg: cfg, mode: mode, epoch: cfg.Epoch}
	if f.epoch <= 0 {
		f.epoch = DefaultEpoch
	}
	if mode == FidelityPacket {
		f.pkt, err = httpapp.NewFleet(net, httpapp.FleetConfig{
			Senders:        cfg.Senders,
			ConnsPerSender: cfg.ConnsPerSender,
			FrontEnd:       cfg.FrontEnd,
			NewCC:          cfg.NewCC,
			NewRecovery:    cfg.NewRecovery,
			Base:           cfg.Base,
			FirstFlow:      cfg.FirstFlow,
			LabelPrefix:    cfg.LabelPrefix,
			Recycle:        recycle,
		})
		return f, err
	}

	f.per = cfg.ConnsPerSender
	if f.per <= 0 {
		f.per = 1
	}
	n := len(cfg.Senders) * f.per
	f.net = net
	// Flows register in release order, not id order: tell each stack its
	// id range so its table is built once.
	f.frontEnd = tcp.NewStack(net, cfg.FrontEnd)
	f.frontEnd.ReserveFlows(cfg.FirstFlow, n)
	f.drv = cfg.FrontEnd.Scheduler()
	f.stacks = make([]*tcp.Stack, len(cfg.Senders))
	for i, h := range cfg.Senders {
		f.stacks[i] = tcp.NewStack(net, h)
		f.stacks[i].ReserveFlows(cfg.FirstFlow+netsim.FlowID(i*f.per), f.per)
	}
	f.stepFn = f.step
	f.demoteFn = f.demoteIfQuiescent
	f.coll = &httpapp.Collector{}
	f.store.recs = make([]flowRec, n)
	f.arena = tcp.NewArena()
	f.initCwnd = cfg.Base.InitialCwnd
	if f.initCwnd == 0 {
		f.initCwnd = tcp.DefaultInitCwnd
	}
	return f, nil
}

// Fidelity returns the fleet's simulation mode.
func (f *Fleet) Fidelity() Fidelity { return f.mode }

// NumFlows returns the number of logical connections.
func (f *Fleet) NumFlows() int {
	if f.pkt != nil {
		return len(f.pkt.Conns)
	}
	return len(f.store.recs)
}

// Collector returns the fleet's default completion collector.
func (f *Fleet) Collector() *httpapp.Collector {
	if f.pkt != nil {
		return f.pkt.Collector
	}
	return f.coll
}

// stackOf returns the sender stack owning flow i.
func (f *Fleet) stackOf(i int) *tcp.Stack { return f.stacks[i/f.per] }

// live returns flow i's materialized connection, or nil: its sender
// stack holds it from NewConn to Detach.
func (f *Fleet) live(i int) *tcp.Conn {
	return f.stackOf(i).Sender(f.cfg.FirstFlow + netsim.FlowID(i))
}

// label returns flow i's default collector label.
func (f *Fleet) label(i int) string {
	return fmt.Sprintf("%s%d", f.cfg.LabelPrefix, i+1)
}

// checkFlow validates a flow index.
func (f *Fleet) checkFlow(i int) error {
	if i < 0 || i >= f.NumFlows() {
		return fmt.Errorf("hybrid: flow %d out of range [0, %d)", i, f.NumFlows())
	}
	return nil
}

// checkRelease validates a release's flow and size. A hybrid timeline
// entry holds the size in 32 bits; both fidelities refuse a size it
// cannot hold, so that a runner behaves the same at either.
func (f *Fleet) checkRelease(i, bytes int) error {
	if err := f.checkFlow(i); err != nil {
		return err
	}
	if bytes != int(int32(bytes)) {
		return fmt.Errorf("hybrid: a %d-byte release on flow %d does not fit in 32 bits", bytes, i)
	}
	return nil
}

// ScheduleResponse releases a response on flow i at the given instant,
// reporting completion to the fleet's collector under the flow's default
// label.
func (f *Fleet) ScheduleResponse(i int, at sim.Time, bytes int) error {
	if err := f.checkRelease(i, bytes); err != nil {
		return err
	}
	if f.pkt != nil {
		return f.pkt.Servers[i].ScheduleResponse(at, bytes)
	}
	return f.ScheduleResponseAs(i, at, bytes, f.label(i), f.coll)
}

// ScheduleResponseAs is ScheduleResponse with an explicit label and
// collector (the large-scale runner's separate measured-SPT collector).
func (f *Fleet) ScheduleResponseAs(i int, at sim.Time, bytes int, label string, coll *httpapp.Collector) error {
	if err := f.checkRelease(i, bytes); err != nil {
		return err
	}
	if f.pkt != nil {
		return f.pkt.Servers[i].ScheduleResponseAs(at, bytes, label, coll)
	}
	if f.armed {
		return fmt.Errorf("hybrid: schedule after Arm")
	}
	coll.NoteScheduled()
	to := sink{label, coll}
	if n := len(f.sinks); n == 0 || f.sinks[n-1] != to {
		f.sinks = append(f.sinks, to)
	}
	f.addRelease(release{at: at, bytes: int32(bytes), flow: int32(i), ref: int32(len(f.sinks) - 1), kind: relResponse})
	return nil
}

// Reserve makes room in the hybrid timeline for n more releases across
// the fleet's flows: sized for the total once, ScheduleTrains on each flow
// never regrows it. At packet fidelity it does nothing; each flow's
// ScheduleTrains hands its schedule over as one run.
func (f *Fleet) Reserve(n int) {
	if f.pkt == nil {
		f.timeline = slices.Grow(f.timeline, n)
	}
}

// ScheduleTrains is ScheduleResponse for each train on flow i; at packet
// fidelity the server's release queue keeps trains as one run, so the
// caller must not modify the slice afterwards.
func (f *Fleet) ScheduleTrains(i int, trains []workload.Train) error {
	if f.pkt == nil {
		for _, tr := range trains {
			if err := f.ScheduleResponse(i, tr.At, tr.Bytes); err != nil {
				return err
			}
		}
		return nil
	}
	for _, tr := range trains {
		if err := f.checkRelease(i, tr.Bytes); err != nil {
			return err
		}
	}
	return f.pkt.Servers[i].ScheduleTrains(trains)
}

// addRelease appends to the timeline, which is sized on first use for
// the common shape of one release per flow.
func (f *Fleet) addRelease(r release) {
	if f.timeline == nil {
		f.timeline = make([]release, 0, len(f.store.recs))
	}
	f.timeline = append(f.timeline, r)
}

// StartBackgroundFlow releases an effectively endless train on flow i:
// completion is not collected (measure by throughput). The flow stays
// materialized for as long as the train runs.
func (f *Fleet) StartBackgroundFlow(i int, at sim.Time, bytes int) error {
	if err := f.checkRelease(i, bytes); err != nil {
		return err
	}
	if f.pkt != nil {
		return f.pkt.Servers[i].StartBackgroundFlow(at, bytes)
	}
	if f.armed {
		return fmt.Errorf("hybrid: schedule after Arm")
	}
	f.addRelease(release{at: at, bytes: int32(bytes), flow: int32(i), kind: relBackground})
	return nil
}

// ScheduleConnAt runs fn against flow i's live connection at the given
// instant, materializing it first in hybrid mode (the impairment
// runner's window snapshot + long-train release).
func (f *Fleet) ScheduleConnAt(i int, at sim.Time, fn func(*tcp.Conn)) error {
	if err := f.checkFlow(i); err != nil {
		return err
	}
	if f.pkt != nil {
		conn := f.pkt.Conns[i]
		_, err := conn.Scheduler().At(at, func() { fn(conn) })
		return err
	}
	if f.armed {
		return fmt.Errorf("hybrid: schedule after Arm")
	}
	f.connFns = append(f.connFns, fn)
	f.addRelease(release{at: at, flow: int32(i), ref: int32(len(f.connFns) - 1), kind: relConn})
	return nil
}

// Arm finalizes the hybrid release timeline and starts the driver. Call
// exactly once, after all scheduling and before the run; in packet mode
// it is a no-op.
func (f *Fleet) Arm() error {
	if f.pkt != nil {
		return nil
	}
	if f.armed {
		return fmt.Errorf("hybrid: Arm called twice")
	}
	f.armed = true
	// Stable by release instant: equal-instant releases keep their
	// scheduling order, which is exactly the event-insertion order the
	// packet fidelity would have used.
	slices.SortStableFunc(f.timeline, func(a, b release) int { return cmp.Compare(a.at, b.at) })
	if len(f.timeline) == 0 {
		return nil
	}
	// One pass from the end: the first release met of a flow is its last,
	// and every sink a response reports to gets its callback
	// (tcp.TrainResult carries the train's size, so one serves them all).
	f.sinkDone = make([]func(tcp.TrainResult), len(f.sinks))
	for k := len(f.timeline) - 1; k >= 0; k-- {
		r := &f.timeline[k]
		if rec := &f.store.recs[r.flow]; rec.flags&flagPending == 0 {
			rec.flags |= flagPending
			r.kind |= relLast
		}
		if r.kind&^relLast != relResponse {
			continue
		}
		if done := &f.sinkDone[r.ref]; *done == nil {
			to := f.sinks[r.ref]
			*done = func(res tcp.TrainResult) { to.coll.Record(to.label, res.Bytes, res) }
		}
	}
	_, err := f.drv.At(f.timeline[0].at, f.stepFn)
	return err
}

// step is the chained driver: demote-sweep, fire due releases, re-arm at
// the next release or epoch tick — one driver event in flight at any
// time, whatever the timeline's length.
func (f *Fleet) step() {
	now := f.drv.Now()
	f.sweep()
	for f.nextRel < len(f.timeline) && f.timeline[f.nextRel].at <= now {
		f.fire(&f.timeline[f.nextRel])
		f.nextRel++
	}
	next := sim.End
	if f.nextRel < len(f.timeline) {
		next = f.timeline[f.nextRel].at
	}
	if f.liveCount > 0 {
		if et := now.Add(f.epoch); et < next {
			next = et
		}
	}
	if next == sim.End {
		// Nothing materialized and no release pending: the fleet is
		// fully folded into the store and the chain ends.
		return
	}
	if _, err := f.drv.At(next, f.stepFn); err != nil {
		f.fail(err)
	}
}

// sweep detaches every quiescent materialized connection into the flow
// store. A connection turns quiescent only inside one of its own events,
// and each of those puts it on the arena's touched list, so the list
// holds every candidate, however many connections are live.
func (f *Fleet) sweep() {
	f.arena.DrainTouched(f.demoteFn)
	if f.drv.Config().Checks {
		// The oracle: a scan of every materialized connection, which is
		// what the sweep used to be, must find nothing left to demote.
		for i := range f.store.recs {
			if c := f.live(i); c != nil && c.Quiescent() {
				panic(fmt.Sprintf("hybrid: flow %d is live and quiescent at %v, yet on no touched list", i, f.drv.Now()))
			}
		}
	}
}

// demoteIfQuiescent folds a touched connection into the store if it has
// gone quiescent.
func (f *Fleet) demoteIfQuiescent(c *tcp.Conn) {
	i := int32(c.Flow() - f.cfg.FirstFlow)
	if f.live(int(i)) != c {
		return // not flow i's live connection: nothing to demote
	}
	f.evals++
	if !c.Quiescent() {
		return
	}
	st, err := c.Detach()
	if err != nil {
		f.fail(fmt.Errorf("hybrid: demote flow %d: %w", i, err))
		return
	}
	f.liveCount--
	f.fold(i, st)
}

// fold saves a detached flow's state into its record. A flow with no
// release left also frees its policy slot, which keeps the objects that
// can be reset for the next flow and drops the others to the collector.
func (f *Fleet) fold(i int32, st tcp.SavedState) {
	if err := f.store.save(int(i), st); err != nil {
		f.fail(fmt.Errorf("hybrid: demote flow %d: %w", i, err))
		return
	}
	r := &f.store.recs[i]
	if r.flags&flagPending != 0 {
		return
	}
	p := &f.pols[r.pol-1]
	if rc, ok := p.cc.(interface{ Recycle() }); ok {
		rc.Recycle()
	} else {
		p.cc = nil
	}
	p.rec.Recycle()
	f.freePols = append(f.freePols, r.pol)
	r.pol = 0
}

// fire materializes a release's flow and starts its train.
func (f *Fleet) fire(r *release) {
	c, err := f.materialize(r.flow)
	if err != nil {
		f.fail(fmt.Errorf("hybrid: release flow %d at %v: %w", r.flow, r.at, err))
		return
	}
	if r.kind&relLast != 0 {
		f.store.recs[r.flow].flags &^= flagPending
	}
	switch r.kind &^ relLast {
	case relConn:
		f.connFns[r.ref](c)
	case relBackground:
		c.SendTrain(int(r.bytes), nil)
	default:
		c.SendTrain(int(r.bytes), f.sinkDone[r.ref])
	}
}

// materialize returns flow i's live connection, creating it from the
// store (or from scratch on first release) if needed. Runs inside the
// driver's events only.
func (f *Fleet) materialize(i int32) (*tcp.Conn, error) {
	if c := f.live(int(i)); c != nil {
		return c, nil
	}
	cfg := f.cfg.Base
	cfg.Sender = f.stackOf(int(i))
	cfg.Receiver = f.frontEnd
	cfg.Flow = f.cfg.FirstFlow + netsim.FlowID(i)
	cfg.Arena = f.arena
	p := f.holdPolicies(i)
	if p.cc != nil {
		cfg.CC = p.cc
	}
	if p.rec != nil {
		cfg.Recovery = p.rec
	}
	if f.store.recs[i].saved() {
		f.restoring = f.store.load(int(i))
		cfg.Restore = &f.restoring
	}
	c, err := tcp.NewConn(cfg)
	if err != nil {
		return nil, err
	}
	// Capture the defaulted policies so the flow's next life reuses the
	// same objects (window inheritance lives in them, not the config).
	p.cc, p.rec = c.CC(), c.Recovery()
	f.liveCount++
	if f.liveCount > f.peakLive {
		f.peakLive = f.liveCount
	}
	return c, nil
}

// holdPolicies returns flow i's policy slot, giving a flow that holds
// none the slot a finished flow freed last, else a new one. A half the
// slot lacks comes from the factory, if there is one (else the Base
// config's policy, else NewConn's default). The default recovery policy
// is the one exception: a connection holds it inside itself, and the
// shell goes back to the arena at Detach, so the slot holds a Classic
// of its own.
func (f *Fleet) holdPolicies(i int32) *policies {
	r := &f.store.recs[i]
	if r.pol == 0 {
		if n := len(f.freePols); n > 0 {
			r.pol = f.freePols[n-1]
			f.freePols = f.freePols[:n-1]
		} else {
			f.pols = append(f.pols, policies{})
			r.pol = int32(len(f.pols))
		}
	}
	p := &f.pols[r.pol-1]
	if p.cc == nil && f.cfg.NewCC != nil {
		p.cc = f.cfg.NewCC()
	}
	if p.rec == nil {
		switch {
		case f.cfg.NewRecovery != nil:
			p.rec = f.cfg.NewRecovery()
		case f.cfg.Base.Recovery == nil:
			p.rec = tcp.NewClassicRecovery()
		}
	}
	return p
}

// fail keeps the first asynchronous error.
func (f *Fleet) fail(err error) {
	if f.firstErr == nil {
		f.firstErr = err
	}
}

// Err returns the first asynchronous error the driver hit (a failed
// materialize or re-arm, a demoted state the flow store cannot hold);
// runners check it after the run.
func (f *Fleet) Err() error { return f.firstErr }

// Live returns the number of currently materialized connections
// (NumFlows in packet mode).
func (f *Fleet) Live() int {
	if f.pkt != nil {
		return len(f.pkt.Conns)
	}
	return f.liveCount
}

// PeakLive returns the high-water mark of simultaneously materialized
// connections (NumFlows in packet mode).
func (f *Fleet) PeakLive() int {
	if f.pkt != nil {
		return len(f.pkt.Conns)
	}
	return f.peakLive
}

// ArenaCap returns the total hot-state slots ever allocated in the
// fleet's arena — the materialized-connection high-water mark as the
// arena saw it. Zero in packet mode, where connections use standalone
// hot state.
func (f *Fleet) ArenaCap() int {
	if f.arena == nil {
		return 0
	}
	return f.arena.Cap()
}

// Cwnd returns flow i's congestion window in segments: the live value
// when materialized, the inherited store value when folded, the initial
// window before the first release. A demoted flow's window cannot change
// while OFF, so the three sources agree with what packet fidelity would
// report.
func (f *Fleet) Cwnd(i int) float64 {
	if f.pkt != nil {
		return f.pkt.Conns[i].Cwnd()
	}
	if c := f.live(i); c != nil {
		return c.Cwnd()
	}
	if r := &f.store.recs[i]; r.saved() {
		return r.cwnd
	}
	return f.initCwnd
}

// DeliveredBytes returns flow i's receiver-side delivered byte count.
func (f *Fleet) DeliveredBytes(i int) int64 {
	if f.pkt != nil {
		return f.pkt.Conns[i].DeliveredBytes()
	}
	if c := f.live(i); c != nil {
		return c.DeliveredBytes()
	}
	return f.store.recs[i].offset
}

// TotalDelivered sums delivered bytes across all flows.
func (f *Fleet) TotalDelivered() int64 {
	if f.pkt != nil {
		return f.pkt.TotalDelivered()
	}
	var total int64
	for i := range f.store.recs {
		if c := f.live(i); c != nil {
			total += c.DeliveredBytes()
		} else {
			total += f.store.recs[i].offset
		}
	}
	return total
}

// Stats returns flow i's lifetime counters (live or folded).
func (f *Fleet) Stats(i int) tcp.Stats {
	if f.pkt != nil {
		return f.pkt.Conns[i].Stats()
	}
	if c := f.live(i); c != nil {
		return c.Stats()
	}
	return f.store.tcpStats(i)
}

// TotalTimeouts sums TCP timeouts across the fleet.
func (f *Fleet) TotalTimeouts() int {
	total := 0
	for i := 0; i < f.NumFlows(); i++ {
		total += f.Stats(i).Timeouts
	}
	return total
}

// Retransmissions sums the per-trigger retransmission breakdown across
// the fleet (see httpapp.RetransBreakdown).
func (f *Fleet) Retransmissions() httpapp.RetransBreakdown {
	var b httpapp.RetransBreakdown
	for i := 0; i < f.NumFlows(); i++ {
		st := f.Stats(i)
		b.Total += st.RetransSegs
		b.Timeout += st.RTORetransSegs
		b.Fast += st.FastRetransSegs
		b.Probes += st.TLPProbes
		b.Spurious += st.SpuriousRetransSegs
		b.Signals += st.RecoverySignals
	}
	return b
}
