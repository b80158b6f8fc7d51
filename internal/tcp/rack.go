package tcp

// RACK-TLP loss recovery (RFC 8985): detect losses by *time* rather than
// by duplicate-ACK counts. Every transmitted segment is stamped with its
// (latest) send time; once any segment sent at time t is known delivered,
// every outstanding segment sent more than a reordering window before t
// is deemed lost and retransmitted, with a timer (built on the timing
// wheel's Timer.Reset) covering segments whose window has not yet
// elapsed. A tail-loss probe retransmits the newest outstanding segment
// after two smoothed RTTs of ACK silence, converting tail drops — which
// generate no dup ACKs at all and would otherwise wait out the full RTO
// floor — into fast recoveries. The classic RTO remains armed underneath
// as the backstop of last resort.
//
// Delivery evidence comes from three sources: cumulative ACK advances,
// SACK blocks (when negotiated), and the ACK's echoed timestamp — the
// echo identifies *which transmission* triggered the ACK, which both
// supplies evidence without SACK and implements Karn's rule for
// retransmitted segments (a retransmission's send time is only trusted
// when the echo proves the retransmission, not the original, was
// delivered).

import (
	"time"

	"tcptrim/internal/netsim"
	"tcptrim/internal/sim"
)

const (
	// rackReoWndFraction sets the reordering window to srtt/4 (the
	// RFC 8985 §7.1 starting value). Smaller detects faster but risks
	// spurious retransmits under reordering; the conservative default
	// keeps the policy safe under the fault matrix's injected reordering.
	rackReoWndFraction = 4
	// tlpPTOFactor is the tail-loss-probe timeout in smoothed RTTs
	// (RFC 8985 §7.3's 2·SRTT).
	tlpPTOFactor = 2
	// tlpMinPTO floors the probe timeout well above same-instant
	// scheduling noise.
	tlpMinPTO = 100 * time.Microsecond
)

// rackSeg tracks one outstanding segment's latest transmission.
type rackSeg struct {
	start, end int64
	sentAt     sim.Time
	rtx        bool // ever retransmitted (Karn ambiguity applies)
	sacked     bool // fully covered by the scoreboard
	lost       bool // marked lost, retransmission pending
}

// RACKTLP is the RFC 8985 policy. Construct with NewRACKTLP; one
// instance per connection.
type RACKTLP struct {
	c    *Conn
	segs []rackSeg // outstanding segments, sorted by start

	// Most recent delivery evidence: the newest transmission time known
	// delivered, the end sequence of that transmission (sequence
	// tiebreak for same-instant bursts), and the RTT it measured.
	xmitTime sim.Time
	xmitEnd  int64
	rtt      time.Duration

	timer   sim.Timer // reordering-window timer
	timerFn func()
	ptoTmr  sim.Timer // tail-loss-probe timer
	ptoFn   func()
	tlpOut  bool // one probe per ACK-silence episode
}

// NewRACKTLP returns a RACK-TLP recovery policy.
func NewRACKTLP() *RACKTLP { return &RACKTLP{} }

var _ RecoveryPolicy = (*RACKTLP)(nil)

// Name implements RecoveryPolicy.
func (p *RACKTLP) Name() string { return "rack-tlp" }

func (p *RACKTLP) attach(c *Conn) {
	if p.c != nil {
		panic("tcp: recovery policy already attached to a connection")
	}
	p.c = c
	if p.timerFn == nil {
		// Bound once per policy object, not per attach: a policy that
		// outlives its connections is re-attached once per train.
		p.timerFn = p.onReorderTimer
		p.ptoFn = p.onPTO
	}
}

func (p *RACKTLP) onSent(seq, end int64, retransmit bool) {
	now := p.c.sched.Now()
	p.noteSent(seq, end, retransmit, now)
	// A segment was just transmitted, so data is outstanding by
	// construction — sndNxt and maxSent are stale here (trySend updates
	// them only after sendSegment returns), and judging idleness from
	// them would cancel the probe exactly when a lone segment leaves an
	// idle window (sendSegment likewise starts the RTO without that
	// idle test).
	p.armPTO(false)
}

// noteSent records or refreshes the segment covering [seq, end). A
// retransmission updates the existing record's send time in place (RACK
// tracks the most recent transmission); SACK-clipped partial resends
// refresh the whole covering record — a conservative approximation that
// only ever delays a loss marking.
func (p *RACKTLP) noteSent(seq, end int64, retransmit bool, now sim.Time) {
	pos := len(p.segs)
	for i := range p.segs {
		s := &p.segs[i]
		if s.start <= seq && seq < s.end {
			s.sentAt = now
			if retransmit {
				s.rtx = true
			}
			s.lost = false
			return
		}
		if seq < s.start {
			pos = i
			break
		}
	}
	p.segs = append(p.segs, rackSeg{})
	copy(p.segs[pos+1:], p.segs[pos:])
	p.segs[pos] = rackSeg{start: seq, end: end, sentAt: now, rtx: retransmit}
}

func (p *RACKTLP) onAckAdvance(pkt *netsim.Packet, ackedSegs int, rtt time.Duration) {
	c := p.c
	now := c.sched.Now()

	// Cumulatively acknowledged segments are delivered: fold their send
	// times into the evidence, then drop them.
	keep := p.segs[:0]
	for i := range p.segs {
		s := &p.segs[i]
		if s.end <= pkt.Ack {
			p.noteDelivered(s, pkt.Echo, rtt)
			continue
		}
		if s.start < pkt.Ack {
			s.start = pkt.Ack
		}
		keep = append(keep, *s)
	}
	p.segs = keep
	p.noteSackDelivered(pkt, rtt)
	p.noteEchoDelivered(pkt, now)

	// Recovery episode ends when the ACK covers its start; partial ACKs
	// need no NewReno deflation — the pipe rule plus time-based marking
	// repair remaining holes.
	if c.inRecovery && pkt.Ack >= c.recover {
		c.inRecovery = false
		c.dupAcks = 0
		c.SetCwnd(c.hot.ssthresh)
		c.observe(EventExitRecovery, 0, pkt.Ack)
	} else if !c.inRecovery {
		c.dupAcks = 0
	}

	p.tlpOut = false // forward progress opens a new probe budget
	p.detectLosses(now)
	p.armPTO(c.hot.sndNxt == c.hot.sndUna)
}

func (p *RACKTLP) onDupAck(pkt *netsim.Packet) {
	c := p.c
	now := c.sched.Now()
	// The scoreboard (merged by the connection) plus the echoed timestamp
	// are this ACK's delivery evidence; detection is purely time-based —
	// no dup-ACK threshold.
	p.noteSackDelivered(pkt, now.Sub(pkt.Echo))
	p.noteEchoDelivered(pkt, now)
	p.detectLosses(now)
	p.armPTO(c.hot.sndNxt == c.hot.sndUna)
}

// onSignal ignores switch recovery signals; combine with the TRACKs
// policy for switch-assisted recovery.
func (p *RACKTLP) onSignal(ack int64) {}

// quiescent requires an empty outstanding-segment table and both timers
// idle; the delivery evidence (xmitTime/rtt) is pure history and may
// carry across a detach.
func (p *RACKTLP) quiescent() bool {
	return len(p.segs) == 0 && !p.tlpOut &&
		!p.timer.Pending() && !p.ptoTmr.Pending()
}

func (p *RACKTLP) detach() {
	p.timer.Stop()
	p.timer = sim.Timer{}
	p.ptoTmr.Stop()
	p.ptoTmr = sim.Timer{}
	p.c = nil
}

// Recycle implements RecoveryPolicy: the delivery evidence goes (it is
// another flow's history); the segment table's storage and the two
// callbacks, which are bound to the object, stay.
func (p *RACKTLP) Recycle() {
	*p = RACKTLP{segs: p.segs[:0], timerFn: p.timerFn, ptoFn: p.ptoFn}
}

func (p *RACKTLP) onTimeout() {
	// The RTO backstop rewound sndNxt: the go-back-N sweep re-records
	// every segment as it is resent. Drop stale records and timers; the
	// delivery evidence stays (it can only mark resends lost after even
	// newer deliveries).
	p.segs = p.segs[:0]
	p.timer.Stop()
	p.timer = sim.Timer{}
	p.ptoTmr.Stop()
	p.ptoTmr = sim.Timer{}
	p.tlpOut = false
}

// noteDelivered folds one delivered segment's send time into the
// evidence. Karn: a retransmitted segment's latest send time is only
// trusted when the ACK's echo does not predate it.
func (p *RACKTLP) noteDelivered(s *rackSeg, echo sim.Time, rtt time.Duration) {
	if s.rtx && echo < s.sentAt {
		return
	}
	if s.sentAt > p.xmitTime || (s.sentAt == p.xmitTime && s.end > p.xmitEnd) {
		p.xmitTime = s.sentAt
		p.xmitEnd = s.end
		p.rtt = rtt
	}
}

// noteSackDelivered marks records now fully covered by the scoreboard.
func (p *RACKTLP) noteSackDelivered(pkt *netsim.Packet, rtt time.Duration) {
	c := p.c
	if !c.cfg.SACK || len(c.sacked) == 0 {
		return
	}
	for i := range p.segs {
		s := &p.segs[i]
		if s.sacked {
			continue
		}
		for _, iv := range c.sacked {
			if iv.start <= s.start && s.end <= iv.end {
				s.sacked = true
				s.lost = false
				p.noteDelivered(s, pkt.Echo, rtt)
				break
			}
		}
	}
}

// noteEchoDelivered uses the ACK's echoed timestamp directly: whichever
// transmission carried that stamp was delivered, even when no SACK block
// says so (per-packet ACKs without SACK, or option-space-rotated blocks).
func (p *RACKTLP) noteEchoDelivered(pkt *netsim.Packet, now sim.Time) {
	t := pkt.Echo
	if t == 0 || t < p.xmitTime {
		return
	}
	end := p.c.hot.maxSent
	for i := range p.segs {
		if p.segs[i].sentAt == t {
			end = p.segs[i].end
			break
		}
	}
	if t > p.xmitTime || (t == p.xmitTime && end > p.xmitEnd) {
		p.xmitTime = t
		p.xmitEnd = end
		p.rtt = now.Sub(t)
	}
}

// reoWnd is the reordering window: srtt/4, floored at zero (a cold
// estimator disables marking until the first RTT sample).
func (p *RACKTLP) reoWnd() time.Duration {
	return p.c.hot.srtt / rackReoWndFraction
}

// detectLosses marks and repairs every outstanding segment sent
// "sufficiently before" the newest delivered transmission (RFC 8985
// §6.2: its deadline sentAt + rtt + reoWnd has passed), and (re)arms the
// reordering timer for the earliest still-pending deadline.
func (p *RACKTLP) detectLosses(now sim.Time) {
	c := p.c
	if p.xmitTime == 0 || p.rtt <= 0 {
		return
	}
	reoWnd := p.reoWnd()
	var nextFire sim.Time
	haveNext := false
	repaired := false
	for i := range p.segs {
		s := &p.segs[i]
		if s.sacked || s.lost || s.end <= c.hot.sndUna {
			continue
		}
		// Sent-after relation with sequence tiebreak: only segments the
		// delivered transmission postdates are candidates.
		if !(p.xmitTime > s.sentAt || (p.xmitTime == s.sentAt && p.xmitEnd > s.end)) {
			continue
		}
		deadline := s.sentAt.Add(p.rtt + reoWnd)
		if now >= deadline {
			s.lost = true
			p.repair(s)
			repaired = true
			continue
		}
		if !haveNext || deadline < nextFire {
			nextFire = deadline
			haveNext = true
		}
	}
	if haveNext {
		d := nextFire.Sub(now)
		if !p.timer.Reset(d) {
			p.timer = c.sched.After(d, p.timerFn)
		}
	} else {
		p.timer.Stop()
		p.timer = sim.Timer{}
	}
	if repaired {
		c.trySend()
	}
}

// repair retransmits one marked-lost segment, entering a recovery
// episode (one window reduction) if none is open. Each marking buys
// exactly one retransmission; marking again requires delivery evidence
// newer than the retransmission itself, so repair cannot loop.
func (p *RACKTLP) repair(s *rackSeg) {
	c := p.c
	if !c.inRecovery {
		c.inRecovery = true
		c.recover = c.hot.sndNxt
		c.stats.FastRecoveries++
		c.SetSsthresh(c.cc.SsthreshAfterLoss())
		c.SetCwnd(c.hot.ssthresh)
		c.observe(EventEnterRecovery, c.hot.sndUna, 0)
	}
	seq, end := s.start, s.end
	if seq < c.hot.sndUna {
		seq = c.hot.sndUna
	}
	if end > c.hot.maxSent {
		end = c.hot.maxSent
	}
	if end <= seq {
		s.lost = false
		return
	}
	// sendSegment → onSent refreshes the record (rtx, new sentAt) and
	// clears its lost mark.
	c.sendSegment(seq, end, sendRtxFast)
}

func (p *RACKTLP) onReorderTimer() {
	p.c.touch()
	p.timer = sim.Timer{}
	p.detectLosses(p.c.sched.Now())
}

// pto is the tail-loss-probe timeout: 2·SRTT (plus the peer's maximum
// ACK delay when delayed ACKs are on), or half the RTO floor before the
// first RTT sample.
func (p *RACKTLP) pto() time.Duration {
	c := p.c
	if c.hot.srtt == 0 {
		return c.cfg.MinRTO / 2
	}
	pto := tlpPTOFactor * c.hot.srtt
	if c.cfg.DelayedAck > 0 {
		pto += c.cfg.DelayedAck
	}
	if pto < tlpMinPTO {
		pto = tlpMinPTO
	}
	return pto
}

// armPTO (re)schedules the tail-loss probe while data is outstanding
// outside recovery and the episode's probe budget is unspent. The
// caller supplies idleness: onSent must pass false (it runs before
// trySend advances sndNxt, so no field reflects the segment in flight),
// while the ACK paths pass sndNxt == sndUna.
func (p *RACKTLP) armPTO(idle bool) {
	c := p.c
	if idle || c.inRecovery || p.tlpOut {
		p.ptoTmr.Stop()
		p.ptoTmr = sim.Timer{}
		return
	}
	d := p.pto()
	if !p.ptoTmr.Reset(d) {
		p.ptoTmr = c.sched.After(d, p.ptoFn)
	}
}

// onPTO fires the tail-loss probe: retransmit the newest outstanding
// segment to provoke an ACK (or SACK) that RACK detection can work with.
// The RTO stays armed underneath — a lost probe still ends in a timeout.
func (p *RACKTLP) onPTO() {
	p.c.touch()
	p.ptoTmr = sim.Timer{}
	c := p.c
	if c.hot.sndUna == c.hot.sndNxt || c.inRecovery || p.tlpOut {
		return
	}
	end := c.hot.sndNxt
	seq := end - int64(c.mss)
	if seq < c.hot.sndUna {
		seq = c.hot.sndUna
	}
	if end <= seq {
		return
	}
	p.tlpOut = true
	c.observe(EventTLPProbe, seq, 0)
	c.sendSegment(seq, end, sendRtxProbe)
}
