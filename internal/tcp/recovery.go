package tcp

// Pluggable loss recovery. The connection owns all shared transport state
// (sequence bookkeeping, the SACK scoreboard, the RFC 6298 estimator and
// its backstop timer); a RecoveryPolicy owns only the *decisions* — when
// to treat data as lost, what to retransmit, and how to react to the
// switch-assisted recovery signals the netsim T-RACKs agent can inject.
//
// Three policies ship:
//
//   - Classic (the default): dup-ACK-threshold fast retransmit with
//     NewReno partial-ACK / RFC 6675 SACK recovery — a verbatim
//     extraction of the historical inline logic, so a default-config
//     connection behaves byte-for-byte like the pre-refactor code.
//   - RACK-TLP (RFC 8985): time-based loss detection with a reordering
//     window plus tail-loss probes; see rack.go.
//   - TRACKs (arXiv 2102.07477): Classic plus fast retransmit on a
//     switch-originated recovery signal; see tracks.go.
//
// The hook methods are unexported: external packages select a policy via
// the constructors (or NewRecoveryPolicy) but cannot implement their own,
// which keeps the conformance shadow oracle's assumptions about recovery
// behavior closed under this package.

import (
	"fmt"
	"time"

	"tcptrim/internal/netsim"
)

// RecoveryPolicy decides when and what a connection retransmits. A policy
// instance is bound to exactly one connection and is not safe for
// concurrent use; obtain instances from NewClassicRecovery, NewRACKTLP,
// NewTRACKs, or NewRecoveryPolicy.
type RecoveryPolicy interface {
	// Name identifies the policy in experiment output.
	Name() string
	// attach binds the policy to its connection before any traffic.
	attach(c *Conn)
	// onSent runs after a data segment was handed to the network and the
	// RTO backstop (re)armed.
	onSent(seq, end int64, retransmit bool)
	// onAckAdvance runs when the cumulative ACK advanced: sndUna has
	// moved, the scoreboard is trimmed, and the RTT estimator updated.
	// The policy decides recovery exit and any repair retransmissions.
	onAckAdvance(pkt *netsim.Packet, ackedSegs int, rtt time.Duration)
	// onDupAck runs for each duplicate ACK that survived the generic
	// no-new-information filter, after dupAcks++ and cc.OnDupAck.
	onDupAck(pkt *netsim.Packet)
	// onSignal handles a switch-assisted recovery signal carrying the
	// receiver's last cumulative ACK (see netsim.TRACKsAgent).
	onSignal(ack int64)
	// onTimeout runs when the RTO backstop fired, after the connection's
	// go-back-N bookkeeping but before cc.OnTimeout and the resend sweep.
	onTimeout()
	// quiescent reports whether the policy holds no pending timers or
	// episode state of its own (Conn.Quiescent folds it in).
	quiescent() bool
	// detach unbinds the policy from its connection (Conn.Detach), after
	// which attach may bind it to a successor. Only called quiescent.
	detach()
	// Recycle resets a detached policy to what its constructor returns,
	// keeping only storage (slice capacity, bound timer callbacks), so
	// that it can serve an unrelated flow as if new. It is exported, alone
	// among the methods, because who decides that a flow is over is the
	// owner of the policy object, not the connection: the hybrid fleet
	// recycles the policies of flows with no release left.
	Recycle()
}

// RecoveryNames lists the selectable policies in NewRecoveryPolicy order.
func RecoveryNames() []string { return []string{"classic", "rack-tlp", "tracks"} }

// NewRecoveryPolicy builds a policy by name ("" selects classic).
func NewRecoveryPolicy(name string) (RecoveryPolicy, error) {
	switch name {
	case "", "classic":
		return NewClassicRecovery(), nil
	case "rack-tlp":
		return NewRACKTLP(), nil
	case "tracks":
		return NewTRACKs(), nil
	}
	return nil, fmt.Errorf("tcp: unknown recovery policy %q (known: %v)", name, RecoveryNames())
}

// classic is dup-ACK-threshold fast retransmit with NewReno partial-ACK
// deflation (or RFC 6675 SACK-directed repair) — the stack's historical
// behavior, extracted verbatim so the default configuration stays
// byte-identical to the pre-refactor code.
type classic struct {
	c *Conn
}

// NewClassicRecovery returns the default dup-ACK/NewReno policy.
func NewClassicRecovery() RecoveryPolicy { return &classic{} }

// Name implements RecoveryPolicy.
func (p *classic) Name() string { return "classic" }

func (p *classic) attach(c *Conn) {
	if p.c != nil {
		panic("tcp: recovery policy already attached to a connection")
	}
	p.c = c
}

func (p *classic) onSent(seq, end int64, retransmit bool) {}

func (p *classic) onAckAdvance(pkt *netsim.Packet, ackedSegs int, rtt time.Duration) {
	c := p.c
	if c.inRecovery {
		if pkt.Ack >= c.recover {
			// Full ACK: leave recovery, deflate to ssthresh.
			c.inRecovery = false
			c.dupAcks = 0
			c.SetCwnd(c.hot.ssthresh)
			c.observe(EventExitRecovery, 0, pkt.Ack)
		} else if c.cfg.SACK {
			// Partial ACK with SACK: the pipe rule keeps the window
			// honest without NewReno's deflation. The stall at the new
			// left edge means that hole (or its retransmission) is
			// missing — repair it.
			c.retransmitFirstUnacked()
		} else {
			// Partial ACK (NewReno): retransmit the next hole, deflate
			// by the amount acked, re-inflate by one.
			c.SetCwnd(c.hot.cwnd - float64(ackedSegs) + 1)
			c.retransmitFirstUnacked()
		}
	} else {
		c.dupAcks = 0
	}
}

func (p *classic) onDupAck(pkt *netsim.Packet) {
	c := p.c
	switch {
	case !c.inRecovery && c.dupAcks == dupAckThreshold:
		c.enterFastRecovery()
	case c.inRecovery && c.cfg.SACK:
		// SACK-directed recovery (RFC 6675 style): no window inflation —
		// the pipe rule (flight excludes SACKed bytes) already frees
		// window space as the scoreboard fills. Repair the next lost
		// hole, then refill with new data.
		c.retransmitNextHole()
		c.trySend()
	case c.inRecovery:
		// Window inflation keeps the pipe full while the hole repairs.
		c.SetCwnd(c.hot.cwnd + 1)
		c.trySend()
	}
}

// onSignal ignores switch recovery signals: classic recovery predates
// switch assistance, and an unsolicited signal proves nothing a dup ACK
// would not (the connection still counts it in Stats.RecoverySignals).
func (p *classic) onSignal(ack int64) {}

func (p *classic) onTimeout() {}

// quiescent: classic keeps all its state in the connection.
func (p *classic) quiescent() bool { return true }

func (p *classic) detach() { p.c = nil }

// Recycle implements RecoveryPolicy: classic keeps nothing but its
// binding, which detach already dropped.
func (p *classic) Recycle() { *p = classic{} }
