package tcp

import (
	"fmt"
	"time"

	"tcptrim/internal/sim"
)

// Compact connection state for the hybrid-fidelity scale layer. A
// persistent HTTP connection in the paper's workload spends most of its
// life OFF (between trains); Detach captures everything a quiescent
// connection would carry into its next ON period into a SavedState worth
// a couple of hundred bytes, releases the Conn (an arena-backed one goes
// back to its arena whole, to be the shell of some later connection),
// and a later NewConn with Config.Restore resumes the same logical flow.
// TRIM's whole premise — the congestion window inherited across ON/OFF
// train boundaries — survives because the window, the RTT estimator, and
// the congestion-control policy object all carry over.

// SavedState is the portable state of a quiescent (drained) connection.
// The sequence space is fully collapsed at quiescence, so one Offset
// stands in for sndUna/sndNxt/maxSent/bufEnd/rcvNxt.
type SavedState struct {
	// Offset is the next byte of the flow's sequence space.
	Offset int64
	// Cwnd and Ssthresh are the congestion window to inherit.
	Cwnd     float64
	Ssthresh float64
	// SRTT and RTTVar restore the RFC 6298 estimator.
	SRTT   time.Duration
	RTTVar time.Duration
	// Backoff and LastRTOAt carry Karn's exponential back-off state.
	Backoff   int
	LastRTOAt sim.Time
	// HasSent and LastSendAt preserve the idle-gap clock delay-based
	// policies read through SinceLastSend.
	HasSent    bool
	LastSendAt sim.Time
	// SackRotate continues the receiver's SACK advertisement rotation.
	SackRotate int
	// RcvCE is the receiver's last-seen CE mark (the DCTCP delayed-ACK
	// state machine).
	RcvCE bool
	// NextPkt and NextAck continue the per-side packet-ID counters.
	NextPkt uint64
	NextAck uint64
	// Stats carries the lifetime counters forward.
	Stats Stats
}

// Quiescent reports whether the connection is fully drained and inert: no
// unsent or unacknowledged data, no out-of-order state on either side, no
// pending timers in the connection, its recovery policy, or its
// congestion-control policy. Only a quiescent connection may Detach.
func (c *Conn) Quiescent() bool {
	h := c.hot
	if h.sndUna != h.sndNxt || h.sndNxt != h.maxSent || h.maxSent != h.bufEnd {
		return false
	}
	if c.rcvNxt != h.sndUna {
		return false
	}
	if c.trainN != 0 || len(c.sacked) != 0 || len(c.ooo) != 0 {
		return false
	}
	if c.inRecovery || c.dupAcks != 0 || c.suspended || c.bonus != 0 || c.sending {
		return false
	}
	if c.rtoTimer.Pending() || c.ackPending || c.ackTimer.Pending() {
		return false
	}
	if !c.recovery.quiescent() {
		return false
	}
	if q, ok := c.cc.(Quiescer); ok && !q.Quiescent() {
		return false
	}
	return true
}

// Quiescer is implemented by congestion-control policies that hold timers
// or multi-event episodes of their own (TRIM's probe cycle); policies
// without it are assumed quiescent whenever the connection is. A policy
// may only turn quiescent inside a connection event or in a timer
// callback of its own that also calls Suspend, Resume, AllowBeyondWindow
// or After on its Control: those are what tells an arena-built
// connection's owner to look at it again (Conn.touch).
type Quiescer interface {
	Quiescent() bool
}

// Detach captures the connection's compact state and dismantles the
// connection: both stacks forget the flow, the recovery policy unbinds
// (ready to re-attach to a successor), and the arena slot — if any — is
// released together with the Conn itself, which a later NewConn on the
// same arena may hand out again as a different flow. The Conn must not
// be used afterwards. Errors if the connection is not Quiescent or was
// detached already.
func (c *Conn) Detach() (SavedState, error) {
	if c.hot == nil {
		return SavedState{}, fmt.Errorf("tcp: flow %d already detached", c.cfg.Flow)
	}
	if !c.Quiescent() {
		return SavedState{}, fmt.Errorf("tcp: flow %d not quiescent (pending=%d rto=%v trains=%d)",
			c.cfg.Flow, c.Pending(), c.rtoTimer.Pending(), c.trainN)
	}
	h := c.hot
	st := SavedState{
		Offset:     h.sndUna,
		Cwnd:       h.cwnd,
		Ssthresh:   h.ssthresh,
		SRTT:       h.srtt,
		RTTVar:     h.rttvar,
		Backoff:    c.backoff,
		LastRTOAt:  c.lastRTOAt,
		HasSent:    c.hasSent,
		LastSendAt: c.lastSendAt,
		SackRotate: c.sackRotate,
		RcvCE:      c.rcvCEState,
		NextPkt:    c.nextPkt,
		NextAck:    c.nextAck,
		Stats:      c.stats,
	}
	c.cfg.Sender.unregisterSender(c.cfg.Flow)
	c.cfg.Receiver.unregisterReceiver(c.cfg.Flow)
	c.recovery.detach()
	c.releaseHot()
	return st, nil
}

// restore seeds a fresh connection from a SavedState (NewConn calls it
// before registration). The whole collapsed sequence space resumes at
// Offset on both sides.
func (c *Conn) restore(r *SavedState) {
	h := c.hot
	h.sndUna, h.sndNxt, h.maxSent, h.bufEnd = r.Offset, r.Offset, r.Offset, r.Offset
	c.trainBase = r.Offset
	h.cwnd = r.Cwnd
	h.ssthresh = r.Ssthresh
	h.srtt = r.SRTT
	h.rttvar = r.RTTVar
	c.rcvNxt = r.Offset
	c.rtxHint = r.Offset
	c.backoff = r.Backoff
	c.lastRTOAt = r.LastRTOAt
	c.hasSent = r.HasSent
	c.lastSendAt = r.LastSendAt
	c.sackRotate = r.SackRotate
	c.rcvCEState = r.RcvCE
	c.nextPkt = r.NextPkt
	c.nextAck = r.NextAck
	c.stats = r.Stats
}
