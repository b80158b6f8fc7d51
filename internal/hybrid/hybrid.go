// Package hybrid is the million-connection scale layer: a fleet of
// persistent HTTP connections that can run at two fidelities. Packet
// fidelity materializes every connection up front (delegating to
// httpapp.Fleet — the historical shape, byte for byte). Hybrid fidelity
// keeps each connection as a few-dozen-byte record in a struct-of-arrays
// flow store while it is OFF, advancing the whole idle population in one
// chained driver event per epoch, and drops to packet level only for
// connections with an ON train: a release materializes the flow into a
// real tcp.Conn (a shell and a hot line recycled through the fleet's
// tcp.Arena, congestion window and RTT estimator inherited from
// the store — TRIM's cross-train window inheritance intact), and the
// driver, which steps at every release and once per epoch while anything
// is materialized, detaches the connections that have gone quiescent
// back into the store. It looks only at connections that ran since its
// previous step (tcp.Arena.DrainTouched), so a step costs what happened,
// not what is live; a flow demoted after its last release also leaves
// its policy objects to the next flow that needs a pair. What is tested
// byte-identical across fidelities is
// TCP-TRIM on the pinned small-scale figures (the *HybridInvariant tests
// in internal/experiment: fig6 and the 3-ToR fig8 cell) and random small
// fleets (FuzzHybridFleetLockstep); plain TCP on the 25-ToR tree is
// known to differ (ROADMAP item 6).
package hybrid

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"tcptrim/internal/httpapp"
	"tcptrim/internal/netsim"
	"tcptrim/internal/sim"
	"tcptrim/internal/tcp"
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
}

// releaseKind discriminates timeline entries. relLast is a flag on top:
// Arm sets it on each flow's last release.
const (
	relResponse = uint8(iota)
	relBackground
	relConn

	relLast = uint8(0x80)
)

// release is one deferred ON event of a flow: 32 bytes and no pointer,
// so a timeline of a million of them is sorted by value and never
// scanned by the collector. What a release reports to or calls lives in
// a side table that ref indexes: Fleet.sinks for relResponse,
// Fleet.connFns for relConn.
type release struct {
	at    sim.Time
	bytes int
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

// flowStore is the struct-of-arrays compact state: one slot per flow,
// valid when the saved flag is set (the flow has been materialized and
// detached at least once). Fields mirror tcp.SavedState; splitting them
// into parallel arrays keeps the hot ones (offset, cwnd) contiguous for
// the sweep and total-delivered scans and costs nothing for fields a
// given experiment never touches.
type flowStore struct {
	offset     []int64
	cwnd       []float64
	ssthresh   []float64
	srtt       []time.Duration
	rttvar     []time.Duration
	lastRTOAt  []sim.Time
	lastSendAt []sim.Time
	nextPkt    []uint64
	nextAck    []uint64
	backoff    []int32
	sackRotate []int32
	flags      []uint8
	stats      []tcp.Stats
}

const (
	flagSaved = uint8(1 << iota)
	flagHasSent
	flagRcvCE
	// flagPending: a release of the flow has yet to fire. Set by Arm,
	// cleared when the flow's last release fires; not part of SavedState.
	flagPending
)

func newFlowStore(n int) *flowStore {
	return &flowStore{
		offset:     make([]int64, n),
		cwnd:       make([]float64, n),
		ssthresh:   make([]float64, n),
		srtt:       make([]time.Duration, n),
		rttvar:     make([]time.Duration, n),
		lastRTOAt:  make([]sim.Time, n),
		lastSendAt: make([]sim.Time, n),
		nextPkt:    make([]uint64, n),
		nextAck:    make([]uint64, n),
		backoff:    make([]int32, n),
		sackRotate: make([]int32, n),
		flags:      make([]uint8, n),
		stats:      make([]tcp.Stats, n),
	}
}

func (s *flowStore) saved(i int32) bool { return s.flags[i]&flagSaved != 0 }

func (s *flowStore) save(i int32, st tcp.SavedState) {
	s.offset[i] = st.Offset
	s.cwnd[i] = st.Cwnd
	s.ssthresh[i] = st.Ssthresh
	s.srtt[i] = st.SRTT
	s.rttvar[i] = st.RTTVar
	s.lastRTOAt[i] = st.LastRTOAt
	s.lastSendAt[i] = st.LastSendAt
	s.nextPkt[i] = st.NextPkt
	s.nextAck[i] = st.NextAck
	s.backoff[i] = int32(st.Backoff)
	s.sackRotate[i] = int32(st.SackRotate)
	flags := flagSaved | s.flags[i]&flagPending
	if st.HasSent {
		flags |= flagHasSent
	}
	if st.RcvCE {
		flags |= flagRcvCE
	}
	s.flags[i] = flags
	s.stats[i] = st.Stats
}

func (s *flowStore) load(i int32) tcp.SavedState {
	return tcp.SavedState{
		Offset:     s.offset[i],
		Cwnd:       s.cwnd[i],
		Ssthresh:   s.ssthresh[i],
		SRTT:       s.srtt[i],
		RTTVar:     s.rttvar[i],
		Backoff:    int(s.backoff[i]),
		LastRTOAt:  s.lastRTOAt[i],
		HasSent:    s.flags[i]&flagHasSent != 0,
		LastSendAt: s.lastSendAt[i],
		SackRotate: int(s.sackRotate[i]),
		RcvCE:      s.flags[i]&flagRcvCE != 0,
		NextPkt:    s.nextPkt[i],
		NextAck:    s.nextAck[i],
		Stats:      s.stats[i],
	}
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
	store    *flowStore
	conns    []*tcp.Conn             // non-nil while materialized
	ccs      []tcp.CongestionControl // per-flow policy, from first release to last demotion
	recs     []tcp.RecoveryPolicy    // per-flow policy, from first release to last demotion
	arena    *tcp.Arena
	initCwnd float64 // resolved Base.InitialCwnd
	// Policies finished flows left, reset (see popOr).
	freeCCs  []tcp.CongestionControl
	freeRecs []tcp.RecoveryPolicy

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
	f.store = newFlowStore(n)
	f.conns = make([]*tcp.Conn, n)
	f.ccs = make([]tcp.CongestionControl, n)
	f.recs = make([]tcp.RecoveryPolicy, n)
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
	return len(f.conns)
}

// Collector returns the fleet's default completion collector.
func (f *Fleet) Collector() *httpapp.Collector {
	if f.pkt != nil {
		return f.pkt.Collector
	}
	return f.coll
}

// stackOf returns the sender-stack index owning flow i.
func (f *Fleet) stackOf(i int32) int { return int(i) / f.per }

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

// ScheduleResponse releases a response on flow i at the given instant,
// reporting completion to the fleet's collector under the flow's default
// label.
func (f *Fleet) ScheduleResponse(i int, at sim.Time, bytes int) error {
	if err := f.checkFlow(i); err != nil {
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
	if err := f.checkFlow(i); err != nil {
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
	f.addRelease(release{at: at, bytes: bytes, flow: int32(i), ref: int32(len(f.sinks) - 1), kind: relResponse})
	return nil
}

// addRelease appends to the timeline, which is sized on first use for
// the common shape of one release per flow.
func (f *Fleet) addRelease(r release) {
	if f.timeline == nil {
		f.timeline = make([]release, 0, len(f.conns))
	}
	f.timeline = append(f.timeline, r)
}

// StartBackgroundFlow releases an effectively endless train on flow i:
// completion is not collected (measure by throughput). The flow stays
// materialized for as long as the train runs.
func (f *Fleet) StartBackgroundFlow(i int, at sim.Time, bytes int) error {
	if err := f.checkFlow(i); err != nil {
		return err
	}
	if f.pkt != nil {
		return f.pkt.Servers[i].StartBackgroundFlow(at, bytes)
	}
	if f.armed {
		return fmt.Errorf("hybrid: schedule after Arm")
	}
	f.addRelease(release{at: at, bytes: bytes, flow: int32(i), kind: relBackground})
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
		if f.store.flags[r.flow]&flagPending == 0 {
			f.store.flags[r.flow] |= flagPending
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
	if _, err := f.drv.At(next, f.stepFn); err != nil && f.firstErr == nil {
		f.firstErr = err
	}
}

// sweep detaches every quiescent materialized connection into the flow
// store. A connection turns quiescent only inside one of its own events,
// and each of those puts it on the arena's touched list, so the list
// holds every candidate, however many connections are live.
func (f *Fleet) sweep() {
	f.arena.DrainTouched(f.demoteFn)
	if sim.InvariantChecks() {
		// The oracle: a scan of every materialized connection, which is
		// what the sweep used to be, must find nothing left to demote.
		for i, c := range f.conns {
			if c != nil && c.Quiescent() {
				panic(fmt.Sprintf("hybrid: flow %d is live and quiescent at %v, yet on no touched list", i, f.drv.Now()))
			}
		}
	}
}

// demoteIfQuiescent folds a touched connection into the store if it has
// gone quiescent. A flow with no release left also gives up its policy
// objects: to the free lists if they can be reset, else to the collector.
func (f *Fleet) demoteIfQuiescent(c *tcp.Conn) {
	i := int32(c.Flow() - f.cfg.FirstFlow)
	if f.conns[i] != c {
		return // not flow i's live connection: nothing to demote
	}
	f.evals++
	if !c.Quiescent() {
		return
	}
	st, err := c.Detach()
	if err != nil {
		if f.firstErr == nil {
			f.firstErr = fmt.Errorf("hybrid: demote flow %d: %w", i, err)
		}
		return
	}
	f.store.save(i, st)
	f.conns[i] = nil
	f.liveCount--
	if f.store.flags[i]&flagPending != 0 {
		return
	}
	if r, ok := f.ccs[i].(interface{ Recycle() }); ok {
		r.Recycle()
		f.freeCCs = append(f.freeCCs, f.ccs[i])
	}
	f.recs[i].Recycle()
	f.freeRecs = append(f.freeRecs, f.recs[i])
	f.ccs[i], f.recs[i] = nil, nil
}

// fire materializes a release's flow and starts its train.
func (f *Fleet) fire(r *release) {
	c, err := f.materialize(r.flow)
	if err != nil {
		if f.firstErr == nil {
			f.firstErr = fmt.Errorf("hybrid: release flow %d at %v: %w", r.flow, r.at, err)
		}
		return
	}
	if r.kind&relLast != 0 {
		f.store.flags[r.flow] &^= flagPending
	}
	switch r.kind &^ relLast {
	case relConn:
		f.connFns[r.ref](c)
	case relBackground:
		c.SendTrain(r.bytes, nil)
	default:
		c.SendTrain(r.bytes, f.sinkDone[r.ref])
	}
}

// materialize returns flow i's live connection, creating it from the
// store (or from scratch on first release) if needed. Runs inside the
// driver's events only.
func (f *Fleet) materialize(i int32) (*tcp.Conn, error) {
	if c := f.conns[i]; c != nil {
		return c, nil
	}
	cfg := f.cfg.Base
	si := f.stackOf(i)
	cfg.Sender = f.stacks[si]
	cfg.Receiver = f.frontEnd
	cfg.Flow = f.cfg.FirstFlow + netsim.FlowID(i)
	cfg.Arena = f.arena
	if f.ccs[i] == nil {
		f.ccs[i] = popOr(&f.freeCCs, f.cfg.NewCC)
	}
	if f.ccs[i] != nil {
		cfg.CC = f.ccs[i]
	}
	if f.recs[i] == nil {
		f.recs[i] = popOr(&f.freeRecs, f.cfg.NewRecovery)
	}
	if f.recs[i] != nil {
		cfg.Recovery = f.recs[i]
	}
	if f.store.saved(i) {
		f.restoring = f.store.load(i)
		cfg.Restore = &f.restoring
	}
	c, err := tcp.NewConn(cfg)
	if err != nil {
		return nil, err
	}
	// Capture the defaulted policies so the flow's next life reuses the
	// same objects (window inheritance lives in them, not the config).
	f.ccs[i] = c.CC()
	f.recs[i] = c.Recovery()
	f.conns[i] = c
	f.liveCount++
	if f.liveCount > f.peakLive {
		f.peakLive = f.liveCount
	}
	return c, nil
}

// popOr gives a flow's first life the policy a finished flow left last,
// else a new one from the factory, else nil (NewConn has a default).
func popOr[T any](free *[]T, factory func() T) (p T) {
	if n := len(*free); n > 0 {
		p, (*free)[n-1] = (*free)[n-1], p
		*free = (*free)[:n-1]
	} else if factory != nil {
		p = factory()
	}
	return p
}

// Err returns the first asynchronous error the driver hit (a failed
// materialize or re-arm); runners check it after the run.
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
	if c := f.conns[i]; c != nil {
		return c.Cwnd()
	}
	if f.store.saved(int32(i)) {
		return f.store.cwnd[i]
	}
	return f.initCwnd
}

// DeliveredBytes returns flow i's receiver-side delivered byte count.
func (f *Fleet) DeliveredBytes(i int) int64 {
	if f.pkt != nil {
		return f.pkt.Conns[i].DeliveredBytes()
	}
	if c := f.conns[i]; c != nil {
		return c.DeliveredBytes()
	}
	return f.store.offset[i]
}

// TotalDelivered sums delivered bytes across all flows.
func (f *Fleet) TotalDelivered() int64 {
	if f.pkt != nil {
		return f.pkt.TotalDelivered()
	}
	var total int64
	for i := range f.conns {
		if c := f.conns[i]; c != nil {
			total += c.DeliveredBytes()
		} else {
			total += f.store.offset[i]
		}
	}
	return total
}

// Stats returns flow i's lifetime counters (live or folded).
func (f *Fleet) Stats(i int) tcp.Stats {
	if f.pkt != nil {
		return f.pkt.Conns[i].Stats()
	}
	if c := f.conns[i]; c != nil {
		return c.Stats()
	}
	return f.store.stats[i]
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
