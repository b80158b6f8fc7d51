package tcp

import (
	"errors"
	"fmt"
	"time"
	"unsafe"

	"tcptrim/internal/netsim"
	"tcptrim/internal/sim"
)

// Configuration defaults. The 200 ms RTO floor matches the paper's default
// ("the retransmission timeout (RTO) is 200 milliseconds"); experiments
// override it per scenario (20 ms in Fig. 8, 1 ms in Fig. 9b).
const (
	DefaultMSS        = netsim.MSS
	DefaultMinCwnd    = 2
	DefaultInitCwnd   = 2
	DefaultMinRTO     = 200 * time.Millisecond
	DefaultMaxRTO     = 10 * time.Second
	defaultSsthresh   = 1 << 30 // effectively unbounded slow start
	maxBackoffShift   = 6
	dupAckThreshold   = 3
	windowSlack       = 1e-9 // float tolerance in window comparisons
	maxSegmentsLimit  = 1 << 30
	minRTTSampleFloor = time.Nanosecond
)

// Config describes one unidirectional TCP connection (data flows
// Sender→Receiver; ACKs flow back).
type Config struct {
	// Sender and Receiver are the endpoints' stacks.
	Sender   *Stack
	Receiver *Stack
	// Flow must be unique within the network.
	Flow netsim.FlowID
	// CC is the window policy; nil means Reno.
	CC CongestionControl
	// MSS in payload bytes; 0 means DefaultMSS.
	MSS int
	// InitialCwnd / MinCwnd in segments; 0 means the defaults (2).
	InitialCwnd float64
	MinCwnd     float64
	// MinRTO / MaxRTO bound the retransmission timer; 0 means defaults.
	MinRTO time.Duration
	MaxRTO time.Duration
	// ECN marks data packets ECN-capable, enabling switch CE marking.
	ECN bool
	// SACK enables selective acknowledgements: the receiver reports its
	// out-of-order ranges (up to netsim.MaxSackBlocks per ACK, rotating
	// so consecutive ACKs cover the whole picture) and the sender keeps
	// a scoreboard — directing retransmissions at holes that qualify as
	// lost (RFC 6675's three-segments-above rule), excluding SACKed data
	// from its in-flight estimate, and skipping SACKed ranges in the
	// post-timeout go-back-N sweep. The payoff regime is multi-loss
	// windows (heavy or bursty loss); under light loss it performs like
	// NewReno. Off by default — the paper's NS2 experiments use
	// Reno/NewReno without SACK; this is a documented extension.
	SACK bool
	// DelayedAck enables receiver ACK coalescing: an ACK is emitted for
	// every second in-order data packet or after this delay, whichever
	// comes first. Out-of-order arrivals, duplicates, and CE-state
	// changes (the DCTCP rule) are acknowledged immediately so loss
	// detection and ECN feedback stay prompt. Zero disables coalescing
	// (per-packet ACKs — the paper's NS2-like default, used by every
	// reproduced experiment).
	DelayedAck time.Duration
	// LinkRate is the access-link capacity hint used by delay-based
	// policies (TCP-TRIM's K); 0 when unknown.
	LinkRate netsim.Bitrate
	// Recovery selects the loss-recovery policy; nil means Classic
	// (dup-ACK threshold + NewReno/SACK recovery, the historical inline
	// behavior), held inside the Conn and gone with it at Detach. A policy
	// instance given here binds to exactly one connection at a time;
	// Detach releases it for reuse on a successor connection.
	Recovery RecoveryPolicy
	// Arena, when non-nil, places the connection's hot state (sequence
	// pointers, window, RTT estimator) in the given arena instead of a
	// standalone allocation, keeping its connections' hot lines
	// contiguous, and takes the Conn itself from the arena's
	// free list of detached shells. Detach returns both, after which the
	// *Conn may come back from a later NewConn as another flow.
	Arena *Arena
	// Reuse, when non-nil, is a connection whose simulation has ended
	// (its scheduler cleared or dropped, its network not run again):
	// NewConn builds the new connection in its object, keeping only the
	// storage of its train ring, SACK scoreboard and out-of-order list,
	// emptied, so nothing of its last simulation stays reachable from it.
	// The old connection must not be used again. Reuse and Arena exclude
	// each other.
	Reuse *Conn
	// Restore, when non-nil, seeds the connection from state captured by
	// Detach on a predecessor, continuing the same logical flow: sequence
	// space, congestion window, RTT estimator, Karn back-off, packet-ID
	// counters, and lifetime stats all carry over. NewConn copies out of
	// it and keeps no reference.
	Restore *SavedState
	// Observer, when non-nil, receives connection lifecycle events
	// (sends, ACKs, recoveries, timeouts) for tracing.
	Observer Observer
}

// Stats aggregates lifetime counters for one connection.
type Stats struct {
	Timeouts       int
	FastRecoveries int
	RetransSegs    int
	SentSegs       int
	ProbeSegs      int
	AcksSent       int
	// AckedBytes is the sender's cumulatively acknowledged byte count; the
	// receiver's in-order count is Conn.DeliveredBytes.
	AckedBytes int64
	ECESeen    int

	// Recovery-path breakdown of RetransSegs: RTORetransSegs counts the
	// post-timeout go-back-N resends, FastRetransSegs the loss-detection
	// repairs (dup-ACK threshold, SACK holes, RACK markings, signal-
	// triggered), and TLPProbes the RACK-TLP tail probes. The three sum
	// to RetransSegs.
	RTORetransSegs  int
	FastRetransSegs int
	TLPProbes       int
	// SpuriousRetransSegs counts, at the receiver, retransmissions that
	// carried no bytes the receiver was missing (the data was already
	// cumulatively delivered or fully inside the out-of-order store).
	SpuriousRetransSegs int
	// RecoverySignals counts switch-assisted recovery signals received
	// (netsim.TRACKsAgent injections), whether or not the policy acted.
	RecoverySignals int
}

// TrainResult reports the completion of one application packet train.
type TrainResult struct {
	// Released is when the train was handed to the connection; Completed
	// is when the sender received the cumulative ACK covering its last
	// byte.
	Released  sim.Time
	Completed sim.Time
	// Bytes is the train's payload size.
	Bytes int
}

// CompletionTime returns the train's sender-observed completion time.
func (r TrainResult) CompletionTime() time.Duration {
	return r.Completed.Sub(r.Released)
}

// train is one entry of the train ring. Its size is not kept: it is end
// minus the end of the train before it, or of trainBase for the oldest.
type train struct {
	end      int64
	released sim.Time
	done     func(TrainResult)
}

type interval struct{ start, end int64 }

// Conn is one simulated TCP connection. It holds both the sender and the
// receiver endpoint state; the simulation has a global view, so splitting
// them into separate objects would only add plumbing. Not safe for
// concurrent use.
type Conn struct {
	sched    *sim.Scheduler
	cfg      Config
	cc       CongestionControl
	recovery RecoveryPolicy
	mss      int

	// hot is the connection's hot state — sequence pointers, congestion
	// window, and the RTT estimator — behind a pointer so arenas can pack
	// connections' hot lines contiguously (cold state stays behind this
	// index). Without an arena it points at line.
	hot     *connHot
	arena   *Arena
	slot    int32
	minCwnd float64
	line    connHot
	// classic is the recovery policy when cfg.Recovery is nil.
	classic classic

	dupAcks    int
	inRecovery bool
	recover    int64

	suspended bool
	bonus     int
	sending   bool // re-entrancy guard for trySend
	// touched says that the connection is already on its arena's touched
	// list (see touch).
	touched bool

	hasSent    bool
	lastSendAt sim.Time
	// The paths of the flow's data segments and of its ACKs.
	dataPath, ackPath netsim.Path

	// SACK scoreboard: received-but-unacknowledged ranges above sndUna,
	// sorted and merged. rtxHint is the recovery retransmission
	// high-water mark (holes below it were already retransmitted this
	// recovery).
	sacked  []interval
	rtxHint int64

	// RTO state (RFC 6298; the smoothed estimator lives in hot).
	rtoTimer sim.Timer
	backoff  int
	// lastRTOAt is when the most recent RTO fired (zero if none). Karn's
	// algorithm: while backed off, only an ACK whose echoed timestamp
	// postdates the timeout — proof a post-RTO (re)transmission was
	// delivered — may reset the back-off; a straggling ACK of a pre-RTO
	// original is ambiguous and must not.
	lastRTOAt sim.Time

	// trains is a ring of the trainN trains not yet acknowledged in full,
	// oldest at trainHead; trainBase is where the oldest starts (the end
	// of the last train completed, or the stream's first byte).
	trains    []train
	trainHead int
	trainN    int
	trainBase int64

	// Receiver state.
	rcvNxt int64
	ooo    []interval
	// sackRotate cycles which scoreboard blocks are advertised so the
	// sender learns the whole out-of-order picture across consecutive
	// ACKs (the option space fits only MaxSackBlocks per ACK).
	sackRotate int
	// lastTouched is the ooo range most recently created or extended;
	// it is always advertised first (RFC 2018 behaviour).
	lastTouched interval
	// Delayed-ACK state (only used when cfg.DelayedAck > 0). The four
	// flags sit together so that padding does not push a Conn into a
	// larger size class (TestConnSizeClass).
	pendingEcho  sim.Time
	ackPending   bool
	pendingCE    bool
	pendingProbe bool
	rcvCEState   bool
	ackTimer     sim.Timer

	stats Stats
}

var _ Control = (*Conn)(nil)

// NewConn validates cfg, registers the connection with both stacks, and
// returns it ready to carry trains.
func NewConn(cfg Config) (*Conn, error) {
	if cfg.Sender == nil || cfg.Receiver == nil {
		return nil, errors.New("tcp: both sender and receiver stacks are required")
	}
	if cfg.Sender.net != cfg.Receiver.net {
		return nil, errors.New("tcp: endpoints belong to different networks")
	}
	if cfg.CC == nil {
		cfg.CC = NewReno()
	}
	if cfg.MSS == 0 {
		cfg.MSS = DefaultMSS
	}
	if cfg.MSS < 1 {
		return nil, fmt.Errorf("tcp: invalid MSS %d", cfg.MSS)
	}
	if cfg.InitialCwnd == 0 {
		cfg.InitialCwnd = DefaultInitCwnd
	}
	if cfg.MinCwnd == 0 {
		cfg.MinCwnd = DefaultMinCwnd
	}
	if cfg.MinRTO == 0 {
		cfg.MinRTO = DefaultMinRTO
	}
	if cfg.MaxRTO == 0 {
		cfg.MaxRTO = DefaultMaxRTO
	}
	// Restore is read here and not kept: a caller may reuse the
	// SavedState it points at for its next connection.
	saved := cfg.Restore
	cfg.Restore = nil
	var c *Conn
	switch {
	case cfg.Arena != nil && cfg.Reuse != nil:
		return nil, errors.New("tcp: Reuse and Arena both set")
	case cfg.Arena != nil:
		c = cfg.Arena.shell()
		c.arena = cfg.Arena
		c.hot, c.slot = cfg.Arena.alloc()
	default:
		if c = cfg.Reuse; c != nil {
			cfg.Reuse = nil
			c.reset()
		} else {
			c = new(Conn)
		}
		c.slot = -1
		c.hot = &c.line
	}
	c.sched = cfg.Sender.host.Scheduler()
	c.cfg = cfg
	c.cc = cfg.CC
	c.recovery = cfg.Recovery
	if c.recovery == nil {
		c.recovery = &c.classic
	}
	c.mss = cfg.MSS
	c.minCwnd = cfg.MinCwnd
	c.hot.cwnd = cfg.InitialCwnd
	c.hot.ssthresh = defaultSsthresh
	if saved != nil {
		c.restore(saved)
	}
	if err := cfg.Sender.registerSender(cfg.Flow, c); err != nil {
		c.releaseHot()
		return nil, err
	}
	if err := cfg.Receiver.registerReceiver(cfg.Flow, c); err != nil {
		cfg.Sender.unregisterSender(cfg.Flow)
		c.releaseHot()
		return nil, err
	}
	c.recovery.attach(c)
	c.cc.Attach(c)
	c.touch() // born quiescent: whoever sweeps must hear of it once
	return c, nil
}

// touch puts an arena-built connection on its arena's touched list unless
// it is there already. Every scheduler entry point calls it first:
// SendTrain, an arriving ACK or data segment, the RTO and delayed-ACK
// timers, a recovery policy's timers, and the Control methods that arm a
// timer (After) or change what Quiescent reads (Suspend, Resume,
// AllowBeyondWindow), which is how a congestion-control policy's own
// timer acts. A connection can only turn Quiescent inside such an entry
// point, so Arena.DrainTouched finds every newly quiescent connection
// without looking at the others. Connections without an arena (packet
// fidelity) pay the one branch; the append is kept out of line so that is
// all the entry points grow by.
func (c *Conn) touch() {
	if c.arena != nil && !c.touched {
		c.arena.noteTouched(c)
	}
}

// reset makes c the zero Conn but for the storage of its train ring, SACK
// scoreboard and out-of-order list, emptied: the train ring is cleared, so
// no callback of c's last life stays reachable from it.
func (c *Conn) reset() {
	clear(c.trains)
	*c = Conn{trains: c.trains, sacked: c.sacked[:0], ooo: c.ooo[:0]}
}

// releaseHot poisons the hot-state pointer so any further use of the
// connection faults loudly, and returns the slot and the shell to the
// arena, if any. The shell waits there poisoned; Arena.shell resets it.
func (c *Conn) releaseHot() {
	c.hot = nil
	if a := c.arena; a != nil {
		a.release(c.slot)
		c.arena = nil
		c.slot = -1
		a.shells = append(a.shells, c)
	}
}

// Scheduler returns the scheduler driving this connection.
func (c *Conn) Scheduler() *sim.Scheduler { return c.sched }

// Flow returns the connection's flow id.
func (c *Conn) Flow() netsim.FlowID { return c.cfg.Flow }

// CC returns the attached congestion-control policy.
func (c *Conn) CC() CongestionControl { return c.cc }

// Recovery returns the attached loss-recovery policy. The default one
// (Config.Recovery nil) is part of the connection and not for a
// successor's Config.
func (c *Conn) Recovery() RecoveryPolicy { return c.recovery }

// Stats returns a copy of the connection counters.
func (c *Conn) Stats() Stats { return c.stats }

// SendTrain appends a packet train (an HTTP response, in the paper's
// terms) of size bytes to the send buffer. done, if non-nil, is invoked
// when the sender receives the cumulative ACK covering the train's last
// byte.
func (c *Conn) SendTrain(size int, done func(TrainResult)) {
	c.touch()
	if size <= 0 {
		if done != nil {
			now := c.sched.Now()
			done(TrainResult{Released: now, Completed: now, Bytes: size})
		}
		return
	}
	c.hot.bufEnd += int64(size)
	if c.trainN == len(c.trains) {
		c.growTrains()
	}
	i := c.trainHead + c.trainN
	if i >= len(c.trains) {
		i -= len(c.trains)
	}
	c.trains[i] = train{
		end:      c.hot.bufEnd,
		released: c.sched.Now(),
		done:     done,
	}
	c.trainN++
	c.trySend()
}

// Pending returns the number of bytes appended but not yet acknowledged.
func (c *Conn) Pending() int64 { return c.hot.bufEnd - c.hot.sndUna }

// --- Control implementation -------------------------------------------

// Now implements Control.
func (c *Conn) Now() sim.Time { return c.sched.Now() }

// After implements Control.
func (c *Conn) After(d time.Duration, fn func()) sim.Timer {
	c.touch()
	return c.sched.After(d, fn)
}

// Cwnd implements Control.
func (c *Conn) Cwnd() float64 { return c.hot.cwnd }

// SetCwnd implements Control.
func (c *Conn) SetCwnd(w float64) {
	if w < c.minCwnd {
		w = c.minCwnd
	}
	if w > maxSegmentsLimit {
		w = maxSegmentsLimit
	}
	c.hot.cwnd = w
}

// Ssthresh implements Control.
func (c *Conn) Ssthresh() float64 { return c.hot.ssthresh }

// SetSsthresh implements Control.
func (c *Conn) SetSsthresh(w float64) {
	if w < c.minCwnd {
		w = c.minCwnd
	}
	c.hot.ssthresh = w
}

// MinCwnd implements Control.
func (c *Conn) MinCwnd() float64 { return c.minCwnd }

// FlightSegs implements Control. With SACK enabled, selectively
// acknowledged bytes do not count as in flight (the RFC 6675 "pipe").
func (c *Conn) FlightSegs() int {
	bytes := c.hot.sndNxt - c.hot.sndUna
	if c.cfg.SACK {
		bytes -= c.sackedBytes()
	}
	if bytes <= 0 {
		return 0
	}
	return int((bytes + int64(c.mss) - 1) / int64(c.mss))
}

// sackedBytes returns the total bytes currently on the scoreboard.
func (c *Conn) sackedBytes() int64 {
	var total int64
	for _, iv := range c.sacked {
		total += iv.end - iv.start
	}
	return total
}

// SRTT implements Control.
func (c *Conn) SRTT() time.Duration { return c.hot.srtt }

// Suspend implements Control.
func (c *Conn) Suspend() {
	c.touch()
	c.suspended = true
}

// Resume implements Control.
func (c *Conn) Resume() {
	c.touch()
	if !c.suspended {
		return
	}
	c.suspended = false
	c.trySend()
}

// AllowBeyondWindow implements Control.
func (c *Conn) AllowBeyondWindow(n int) {
	c.touch()
	if n < 0 {
		n = 0
	}
	c.bonus = n
}

// LinkRate implements Control.
func (c *Conn) LinkRate() netsim.Bitrate { return c.cfg.LinkRate }

// WirePacketSize implements Control.
func (c *Conn) WirePacketSize() int { return c.mss + netsim.HeaderSize }

// SinceLastSend returns the idle time since the last data transmission
// and whether any data was ever sent.
func (c *Conn) SinceLastSend() (time.Duration, bool) {
	if !c.hasSent {
		return 0, false
	}
	return c.sched.Now().Sub(c.lastSendAt), true
}

// --- Sender ------------------------------------------------------------

// trySend transmits as much new data as the window (plus any bonus
// grants) allows.
func (c *Conn) trySend() {
	if c.sending {
		return
	}
	c.sending = true
	defer func() { c.sending = false }()

	for !c.suspended && c.hot.sndNxt < c.hot.bufEnd {
		if !c.windowOpen() {
			break
		}
		// After a timeout, go-back-N resends below maxSent; with SACK the
		// sweep skips ranges the receiver already holds.
		if c.cfg.SACK {
			for _, iv := range c.sacked {
				if iv.start <= c.hot.sndNxt && c.hot.sndNxt < iv.end {
					c.hot.sndNxt = iv.end
				}
			}
			if c.hot.sndNxt >= c.hot.bufEnd {
				break
			}
		}
		isRtx := c.hot.sndNxt < c.hot.maxSent
		if !isRtx {
			// Algorithm 1 consults the policy "before sending a new
			// packet (not a retransmission packet)".
			c.cc.BeforeSend()
			if c.suspended {
				break
			}
			if !c.windowOpen() {
				break
			}
		}
		seg := int64(c.mss)
		if rem := c.hot.bufEnd - c.hot.sndNxt; rem < seg {
			seg = rem
		}
		if c.cfg.SACK {
			for _, iv := range c.sacked {
				if iv.start > c.hot.sndNxt && iv.start < c.hot.sndNxt+seg {
					seg = iv.start - c.hot.sndNxt
					break
				}
			}
		}
		usedBonus := !c.fitsWindow()
		kind := sendNew
		if isRtx {
			// Below maxSent only after an RTO rewound sndNxt: the
			// go-back-N sweep is the timeout-driven retransmission path.
			kind = sendRtxTimeout
		}
		c.sendSegment(c.hot.sndNxt, c.hot.sndNxt+seg, kind)
		c.hot.sndNxt += seg
		if c.hot.sndNxt > c.hot.maxSent {
			c.hot.maxSent = c.hot.sndNxt
		}
		if usedBonus && c.bonus > 0 {
			c.bonus--
		}
	}
}

// fitsWindow reports whether one more segment fits in the congestion
// window proper (ignoring bonus grants).
func (c *Conn) fitsWindow() bool {
	return float64(c.FlightSegs()+1) <= c.hot.cwnd+windowSlack
}

// windowOpen reports whether a segment may be sent, counting bonus
// capacity when the window proper is full.
func (c *Conn) windowOpen() bool {
	return c.fitsWindow() || c.bonus > 0
}

// sendKind classifies a data transmission for the retransmission
// breakdown counters (Stats.RTORetransSegs / FastRetransSegs /
// TLPProbes).
type sendKind uint8

const (
	sendNew        sendKind = iota // first transmission
	sendRtxTimeout                 // post-RTO go-back-N resend
	sendRtxFast                    // loss-detection repair (dup-ACK, SACK hole, RACK, signal)
	sendRtxProbe                   // RACK-TLP tail-loss probe
)

// sendSegment emits one data segment onto the network.
func (c *Conn) sendSegment(seq, end int64, kind sendKind) {
	retransmit := kind != sendNew
	if retransmit && sim.InvariantChecks() {
		// No recovery policy's targeted repair may resend data already
		// cumulatively ACKed, nor claim to retransmit data never sent.
		// The post-RTO go-back-N sweep is exempt on both edges: a delayed
		// ACK can overtake the rewind (the sweep then re-covers acked
		// bytes, which the receiver discards and counts as spurious), and
		// a sweep segment may mix old bytes with data appended after the
		// rewind, extending past maxSent.
		if seq >= c.hot.maxSent || end <= seq {
			panic(fmt.Sprintf("tcp: invalid retransmission [%d,%d) with sndUna=%d maxSent=%d",
				seq, end, c.hot.sndUna, c.hot.maxSent))
		}
		if kind != sendRtxTimeout && (seq < c.hot.sndUna || end > c.hot.maxSent) {
			panic(fmt.Sprintf("tcp: repair retransmission [%d,%d) outside [sndUna=%d, maxSent=%d]",
				seq, end, c.hot.sndUna, c.hot.maxSent))
		}
	}
	now := c.sched.Now()
	var gap time.Duration
	if c.hasSent {
		gap = now.Sub(c.lastSendAt)
	}
	payload := int(end - seq)
	pkt := c.cfg.Sender.host.AllocPacket()
	pkt.ID = c.nextPktID()
	pkt.Flow = c.cfg.Flow
	pkt.Src = c.cfg.Sender.host.ID()
	pkt.Dst = c.cfg.Receiver.host.ID()
	pkt.Size = payload + netsim.HeaderSize
	pkt.Payload = payload
	pkt.Seq = seq
	pkt.ECT = c.cfg.ECN
	pkt.SentAt = now
	pkt.Retransmit = retransmit
	probe := c.cc.OnSent(SendEvent{Seq: seq, EndSeq: end, Retransmit: retransmit, Gap: gap})
	if probe {
		pkt.Probe = true
		c.stats.ProbeSegs++
	}
	c.stats.SentSegs++
	switch kind {
	case sendRtxTimeout:
		c.stats.RetransSegs++
		c.stats.RTORetransSegs++
	case sendRtxFast:
		c.stats.RetransSegs++
		c.stats.FastRetransSegs++
	case sendRtxProbe:
		c.stats.RetransSegs++
		c.stats.TLPProbes++
	}
	c.hasSent = true
	c.lastSendAt = now
	ev := EventSend
	if retransmit {
		ev = EventRetransmit
	}
	c.observe(ev, seq, 0)
	c.dataPath.Send(c.cfg.Sender.host, pkt)
	// RFC 6298 §5.1: every data send starts the timer if it is not
	// running. A segment was just handed to the network, so data is
	// outstanding even when trySend has not yet advanced sndNxt (a lone
	// segment sent from an idle window). Sends never postpone a pending
	// timer, or a steady stream of dup-ACK-driven sends could starve the
	// RTO forever.
	if !c.rtoTimer.Pending() {
		c.startRTO()
	}
	c.recovery.onSent(seq, end, retransmit)
}

// nextPktID numbers a data segment by the sender's count of segments,
// this one included.
func (c *Conn) nextPktID() uint64 {
	return uint64(c.cfg.Flow)<<32 | uint64(c.stats.SentSegs+1)
}

// nextAckID numbers receiver-originated packets by the receiver's count of
// ACKs, this one included; bit 31 keeps the two ID spaces disjoint.
func (c *Conn) nextAckID() uint64 {
	return uint64(c.cfg.Flow)<<32 | 1<<31 | uint64(c.stats.AcksSent)
}

// observe reports a lifecycle event to the configured observer, if any.
func (c *Conn) observe(kind EventKind, seq, ack int64) {
	if c.cfg.Observer == nil {
		return
	}
	c.cfg.Observer.Record(Event{
		At:     c.sched.Now(),
		Kind:   kind,
		Seq:    seq,
		Ack:    ack,
		Cwnd:   c.hot.cwnd,
		Flight: c.FlightSegs(),
	})
}

// handleAck processes an ACK arriving at the sender.
func (c *Conn) handleAck(pkt *netsim.Packet) {
	c.touch()
	if pkt.RecoverySignal {
		// Switch-assisted recovery signal (netsim.TRACKsAgent): not a
		// receiver ACK — no RTT sample, no window-edge bookkeeping. The
		// policy decides whether to act on it.
		c.stats.RecoverySignals++
		c.recovery.onSignal(pkt.Ack)
		return
	}
	now := c.sched.Now()
	rtt := now.Sub(pkt.Echo)
	if pkt.ECE {
		c.stats.ECESeen++
	}

	if pkt.Ack > c.hot.sndUna {
		c.onAdvancingAck(pkt, rtt)
		return
	}
	c.onDuplicateAck(pkt)
}

func (c *Conn) onAdvancingAck(pkt *netsim.Packet, rtt time.Duration) {
	if c.cfg.SACK {
		c.mergeSack(pkt.Sack)
	}
	ackedBytes := pkt.Ack - c.hot.sndUna
	ackedSegs := int((ackedBytes + int64(c.mss) - 1) / int64(c.mss))
	c.hot.sndUna = pkt.Ack
	if c.cfg.SACK {
		c.trimSackBelow(c.hot.sndUna)
		if c.rtxHint < c.hot.sndUna {
			c.rtxHint = c.hot.sndUna
		}
	}
	c.stats.AckedBytes += ackedBytes
	if rtt >= minRTTSampleFloor {
		c.updateRTOEstimator(rtt)
	}
	if c.backoff == 0 || pkt.Echo >= c.lastRTOAt {
		// Karn: reset the exponential back-off only when the ACK echoes a
		// timestamp from after the last timeout — evidence a post-RTO
		// transmission got through. A late ACK of a pre-RTO original
		// advances the window but says nothing about the retransmitted
		// segment's fate, so the back-off must survive it.
		c.backoff = 0
	}

	c.recovery.onAckAdvance(pkt, ackedSegs, rtt)

	c.cc.OnAck(AckEvent{
		Ack:        pkt.Ack,
		AckedBytes: ackedBytes,
		AckedSegs:  ackedSegs,
		RTT:        rtt,
		ECE:        pkt.ECE,
		InRecovery: c.inRecovery,
	})

	c.observe(EventAck, 0, pkt.Ack)
	c.completeTrains()
	c.armRTO()
	c.trySend()
}

func (c *Conn) onDuplicateAck(pkt *netsim.Packet) {
	if pkt.Ack != c.hot.sndUna || c.hot.sndNxt == c.hot.sndUna {
		return // stale ACK or nothing in flight
	}
	if c.cfg.SACK {
		before := c.sackedBytes()
		c.mergeSack(pkt.Sack)
		if c.sackedBytes() == before && before == 0 {
			// A duplicate ACK carrying no SACK information while the
			// scoreboard is empty is a byte-identical copy — network
			// duplication of the ACK, or the receiver's echo of a
			// duplicated data segment — and signals nothing about loss;
			// counting it would fire spurious fast retransmits under
			// fault injection. Once the scoreboard holds data a recovery
			// is in progress, and no-new-info duplicates keep counting as
			// RFC 5681 loss signals.
			return
		}
	}
	c.dupAcks++
	c.observe(EventDupAck, 0, pkt.Ack)
	c.cc.OnDupAck()
	c.recovery.onDupAck(pkt)
}

func (c *Conn) enterFastRecovery() {
	c.inRecovery = true
	c.recover = c.hot.sndNxt
	// The retransmission high-water mark survives back-to-back
	// recoveries: holes already repaired (whose rtx may still be in
	// flight) are not re-sent at each recovery entry.
	if c.rtxHint < c.hot.sndUna {
		c.rtxHint = c.hot.sndUna
	}
	c.stats.FastRecoveries++
	c.SetSsthresh(c.cc.SsthreshAfterLoss())
	c.SetCwnd(c.hot.ssthresh + dupAckThreshold)
	c.observe(EventEnterRecovery, c.hot.sndUna, 0)
	c.retransmitFirstUnacked()
}

func (c *Conn) retransmitFirstUnacked() {
	end := c.hot.sndUna + int64(c.mss)
	if c.cfg.SACK && len(c.sacked) > 0 && c.sacked[0].start < end {
		// Do not re-send bytes the receiver already holds.
		end = c.sacked[0].start
	}
	if end > c.hot.maxSent {
		end = c.hot.maxSent
	}
	if end <= c.hot.sndUna {
		return
	}
	c.sendSegment(c.hot.sndUna, end, sendRtxFast)
	if c.rtxHint < end {
		c.rtxHint = end
	}
}

// retransmitNextHole repairs the first scoreboard hole at or above the
// recovery high-water mark, when the congestion window has room. It
// reports whether a retransmission was sent.
func (c *Conn) retransmitNextHole() bool {
	if !c.fitsWindow() {
		return false
	}
	seq, end := c.nextHole()
	if end <= seq {
		return false
	}
	c.sendSegment(seq, end, sendRtxFast)
	c.rtxHint = end
	return true
}

// nextHole returns the next unsacked segment in [max(sndUna, rtxHint),
// sndNxt) that qualifies as lost under the RFC 6675 heuristic — at least
// three segments' worth of SACKed data lie above it (data merely still in
// flight is not a hole). The segment is clipped to one MSS and to the
// following SACK block. Returns an empty range when no hole qualifies.
func (c *Conn) nextHole() (seq, end int64) {
	seq = c.hot.sndUna
	if c.rtxHint > seq {
		seq = c.rtxHint
	}
	// Skip past any block covering seq.
	for _, iv := range c.sacked {
		if iv.start <= seq && seq < iv.end {
			seq = iv.end
		}
	}
	if seq >= c.hot.sndNxt {
		return seq, seq
	}
	end = seq + int64(c.mss)
	for _, iv := range c.sacked {
		if iv.start > seq && iv.start < end {
			end = iv.start
			break
		}
	}
	if end > c.hot.maxSent {
		end = c.hot.maxSent
	}
	if c.sackedBytesAbove(end) < int64(dupAckThreshold*c.mss) {
		return seq, seq
	}
	return seq, end
}

// sackedBytesAbove returns the scoreboard bytes strictly above pos.
func (c *Conn) sackedBytesAbove(pos int64) int64 {
	var total int64
	for _, iv := range c.sacked {
		if iv.end <= pos {
			continue
		}
		start := iv.start
		if start < pos {
			start = pos
		}
		total += iv.end - start
	}
	return total
}

// mergeSack folds the ACK's SACK blocks into the scoreboard.
func (c *Conn) mergeSack(blocks []netsim.SackBlock) {
	for _, b := range blocks {
		if b.End <= b.Start || b.End <= c.hot.sndUna {
			continue
		}
		start := b.Start
		if start < c.hot.sndUna {
			start = c.hot.sndUna
		}
		c.sacked = insertRange(c.sacked, interval{start, b.End})
	}
}

// insertRange adds iv to list, a list of ranges sorted by start in which
// each starts after its predecessor ends, and returns the list kept so:
// iv merges with the range before it and swallows those after it that it
// reaches, [a,b) with [b,c) included. A range starting at or after the
// last one's start goes on the tail; otherwise a binary search finds the
// first range starting after iv, where iv goes, so only the ranges iv
// touches are visited.
func insertRange(list []interval, iv interval) []interval {
	n := len(list)
	pos := n
	if n > 0 && iv.start < list[n-1].start {
		lo, hi := 0, n-1
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if iv.start < list[mid].start {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		pos = lo
	}
	at := pos // where iv ends up
	if pos > 0 && iv.start <= list[pos-1].end {
		at = pos - 1
		iv = interval{list[at].start, max(list[at].end, iv.end)}
	}
	j := pos // the first range after iv that it does not reach
	for j < n && list[j].start <= iv.end {
		iv.end = max(iv.end, list[j].end)
		j++
	}
	if j == at {
		list = append(list, interval{})
		copy(list[at+1:], list[at:])
	} else if j > at+1 {
		list = append(list[:at+1], list[j:]...)
	}
	list[at] = iv
	return list
}

// trimSackBelow drops scoreboard data at or below the cumulative ACK.
func (c *Conn) trimSackBelow(una int64) {
	out := c.sacked[:0]
	for _, iv := range c.sacked {
		if iv.end <= una {
			continue
		}
		if iv.start < una {
			iv.start = una
		}
		out = append(out, iv)
	}
	c.sacked = out
}

// growTrains enlarges the full train ring as append grows a full list,
// so it takes no more memory than a list of the same backlog, and lays it
// out oldest train first. The ring is reused for as long as the
// connection (or its shell) lives.
func (c *Conn) growTrains() {
	old := c.trains
	buf := append(old[:len(old):len(old)], train{})
	buf = buf[:cap(buf)]
	n := copy(buf, old[c.trainHead:])
	copy(buf[n:], old[:c.trainHead])
	c.trains, c.trainHead = buf, 0
}

// completeTrains reports, in order, every train the cumulative ACK now
// covers, popping each off the head of the ring in O(1) however deep the
// backlog.
func (c *Conn) completeTrains() {
	now := c.sched.Now()
	for c.trainN > 0 && c.trains[c.trainHead].end <= c.hot.sndUna {
		tr := c.trains[c.trainHead]
		c.trains[c.trainHead] = train{} // drop the callback
		if c.trainHead++; c.trainHead == len(c.trains) {
			c.trainHead = 0
		}
		c.trainN--
		bytes := int(tr.end - c.trainBase)
		c.trainBase = tr.end
		if tr.done != nil {
			tr.done(TrainResult{Released: tr.released, Completed: now, Bytes: bytes})
		}
	}
}

// --- RTO ---------------------------------------------------------------

func (c *Conn) updateRTOEstimator(rtt time.Duration) {
	if c.hot.srtt == 0 {
		c.hot.srtt = rtt
		c.hot.rttvar = rtt / 2
		return
	}
	// RFC 6298 with the standard gains.
	diff := c.hot.srtt - rtt
	if diff < 0 {
		diff = -diff
	}
	c.hot.rttvar = (3*c.hot.rttvar + diff) / 4
	c.hot.srtt = (7*c.hot.srtt + rtt) / 8
}

// rto returns the current retransmission timeout including back-off.
func (c *Conn) rto() time.Duration {
	base := c.hot.srtt + 4*c.hot.rttvar
	if base < c.cfg.MinRTO {
		base = c.cfg.MinRTO
	}
	shift := c.backoff
	if shift > maxBackoffShift {
		shift = maxBackoffShift
	}
	rto := base << shift
	if rto > c.cfg.MaxRTO {
		rto = c.cfg.MaxRTO
	}
	return rto
}

// armRTO (re)starts the retransmission timer while data is outstanding
// and stops it otherwise. The happy path — a still-pending timer pushed
// out by an ACK — re-slots the event in place via Reset instead of
// cancelling and rescheduling, which this path does once per ACK.
func (c *Conn) armRTO() {
	if c.hot.sndUna == c.hot.sndNxt {
		c.rtoTimer.Stop()
		c.rtoTimer = sim.Timer{}
		return
	}
	c.startRTO()
}

// startRTO (re)starts the retransmission timer at the current RTO.
func (c *Conn) startRTO() {
	d := c.rto()
	if !c.rtoTimer.Reset(d) {
		c.rtoTimer = c.sched.AfterArg(d, connRTO, unsafe.Pointer(c))
	}
}

// connRTO and connAckFlush are the retransmission and delayed-ACK timer
// callbacks, armed with their connection as the argument: a package
// function binds nothing per connection.
func connRTO(p unsafe.Pointer)      { (*Conn)(p).onRTO() }
func connAckFlush(p unsafe.Pointer) { (*Conn)(p).flushPendingAck() }

func (c *Conn) onRTO() {
	c.touch()
	c.rtoTimer = sim.Timer{}
	if c.hot.sndUna == c.hot.sndNxt {
		return
	}
	c.lastRTOAt = c.sched.Now()
	c.stats.Timeouts++
	c.observe(EventTimeout, c.hot.sndUna, 0)
	c.SetSsthresh(c.cc.SsthreshAfterLoss())
	c.SetCwnd(c.minCwnd)
	c.inRecovery = false
	c.dupAcks = 0
	c.bonus = 0
	// Exponential back-off, saturating at the shift that already pins
	// rto() to MaxRTO: a long blackout must not wind the counter past the
	// cap it would have to unwind from.
	if c.backoff < maxBackoffShift {
		c.backoff++
	}
	// Go-back-N: everything past the cumulative ACK is presumed lost.
	// With SACK the scoreboard survives the timeout so the resend sweep
	// skips data the receiver already holds.
	if !c.cfg.SACK {
		c.sacked = c.sacked[:0]
	}
	c.rtxHint = c.hot.sndUna
	c.hot.sndNxt = c.hot.sndUna
	c.recovery.onTimeout()
	c.cc.OnTimeout()
	c.trySend()
	c.armRTO()
}

// --- Receiver ----------------------------------------------------------

// handleData processes a data packet arriving at the receiver. With
// per-packet acknowledgements (the default), every arrival is ACKed
// immediately, echoing the packet's timestamp and CE mark. With
// DelayedAck configured, in-order arrivals coalesce two-per-ACK with a
// deadline, while out-of-order arrivals, duplicates, and CE transitions
// flush immediately.
func (c *Conn) handleData(pkt *netsim.Packet) {
	c.touch()
	seq, end := pkt.Seq, pkt.Seq+int64(pkt.Payload)
	if pkt.Retransmit {
		// Spurious-retransmission accounting (counter only): the resend
		// brought nothing the receiver was missing — its bytes were
		// already delivered in order, or sit whole in an out-of-order
		// island.
		if end <= c.rcvNxt {
			c.stats.SpuriousRetransSegs++
		} else {
			for _, iv := range c.ooo {
				if iv.start <= seq && end <= iv.end {
					c.stats.SpuriousRetransSegs++
					break
				}
			}
		}
	}
	inOrder := seq <= c.rcvNxt && end > c.rcvNxt
	switch {
	case inOrder:
		c.rcvNxt = end
		c.drainOutOfOrder()
	case seq > c.rcvNxt:
		c.ooo = insertRange(c.ooo, interval{seq, end})
		c.lastTouched = interval{seq, end}
	}

	if c.cfg.DelayedAck <= 0 {
		c.sendAck(pkt.SentAt, pkt.CE, pkt.Probe)
		return
	}

	ceChanged := pkt.CE != c.rcvCEState
	c.rcvCEState = pkt.CE
	if !inOrder || ceChanged {
		// Prompt feedback: dup ACKs drive fast retransmit, and exact CE
		// transitions keep DCTCP's fraction estimate faithful.
		c.flushPendingAck()
		c.sendAck(pkt.SentAt, pkt.CE, pkt.Probe)
		return
	}
	if c.ackPending {
		// Second in-order segment: acknowledge both.
		c.clearPendingAck()
		c.sendAck(pkt.SentAt, pkt.CE, pkt.Probe)
		return
	}
	c.ackPending = true
	c.pendingEcho = pkt.SentAt
	c.pendingCE = pkt.CE
	c.pendingProbe = pkt.Probe
	if !c.ackTimer.Reset(c.cfg.DelayedAck) {
		c.ackTimer = c.sched.AfterArg(c.cfg.DelayedAck, connAckFlush, unsafe.Pointer(c))
	}
}

// flushPendingAck emits a deferred ACK, if any.
func (c *Conn) flushPendingAck() {
	c.touch()
	if !c.ackPending {
		return
	}
	echo, ce, probe := c.pendingEcho, c.pendingCE, c.pendingProbe
	c.clearPendingAck()
	c.sendAck(echo, ce, probe)
}

func (c *Conn) clearPendingAck() {
	c.ackPending = false
	c.ackTimer.Stop()
	c.ackTimer = sim.Timer{}
}

// sendAck emits a cumulative acknowledgement from the receiver,
// attaching SACK blocks for any out-of-order data when negotiated.
func (c *Conn) sendAck(echo sim.Time, ce, probe bool) {
	c.stats.AcksSent++
	ack := c.cfg.Receiver.host.AllocPacket()
	ack.ID = c.nextAckID()
	ack.Flow = c.cfg.Flow
	ack.Src = c.cfg.Receiver.host.ID()
	ack.Dst = c.cfg.Sender.host.ID()
	ack.Size = netsim.AckSize
	ack.IsAck = true
	ack.Ack = c.rcvNxt
	ack.Echo = echo
	ack.ECE = ce
	ack.Probe = probe
	if c.cfg.SACK && len(c.ooo) > 0 {
		ack.Sack = c.appendSackBlocks(ack.Sack[:0])
	}
	c.ackPath.Send(c.cfg.Receiver.host, ack)
}

// DeliveredBytes returns the number of bytes delivered in order at the
// receiver, the goodput numerator.
func (c *Conn) DeliveredBytes() int64 { return c.rcvNxt }

// appendSackBlocks advertises up to MaxSackBlocks scoreboard ranges into
// blocks (typically a recycled packet's Sack slice): the most recently
// touched block first, then the remaining blocks in rotation so
// consecutive ACKs cover the whole out-of-order picture.
func (c *Conn) appendSackBlocks(blocks []netsim.SackBlock) []netsim.SackBlock {
	if cap(blocks) < netsim.MaxSackBlocks {
		// The packet keeps this storage through the pool: size it once for
		// the most an ACK carries instead of growing it 1→2→4.
		blocks = make([]netsim.SackBlock, 0, netsim.MaxSackBlocks)
	}
	appendIv := func(iv interval) {
		for _, b := range blocks {
			if b.Start == iv.start && b.End == iv.end {
				return
			}
		}
		blocks = append(blocks, netsim.SackBlock{Start: iv.start, End: iv.end})
	}
	// Most recent first: find the (possibly merged) block containing the
	// last-touched range.
	for _, iv := range c.ooo {
		if c.lastTouched.start >= iv.start && c.lastTouched.start < iv.end {
			appendIv(iv)
			break
		}
	}
	for i := 0; i < len(c.ooo) && len(blocks) < netsim.MaxSackBlocks; i++ {
		appendIv(c.ooo[(c.sackRotate+i)%len(c.ooo)])
	}
	c.sackRotate++
	return blocks
}

func (c *Conn) drainOutOfOrder() {
	n := 0
	for n < len(c.ooo) && c.ooo[n].start <= c.rcvNxt {
		if c.ooo[n].end > c.rcvNxt {
			c.rcvNxt = c.ooo[n].end
		}
		n++
	}
	if n > 0 {
		// Copy down: reslicing past the drained islands would walk the
		// backing array forward until insertRange has to reallocate.
		c.ooo = c.ooo[:copy(c.ooo, c.ooo[n:])]
	}
}
