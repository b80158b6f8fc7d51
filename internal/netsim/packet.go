// Package netsim models a packet-switched network at NS2 granularity on
// top of the sim event core: unidirectional pipes with a transmission rate
// and propagation delay, drop-tail (optionally ECN-marking) FIFO queues,
// store-and-forward switches, hosts, and static shortest-path routing with
// per-flow ECMP.
package netsim

import (
	"fmt"

	"tcptrim/internal/sim"
)

// NodeID identifies a node within one Network.
type NodeID int

// FlowID identifies a transport flow end to end. Flow IDs are assigned by
// the transport layer and are only required to be unique per Network.
type FlowID uint64

// Wire format constants shared across the simulator. The paper's
// simulations use 1460-byte TCP segments ("packet size is set as 1460
// bytes" refers to the MSS; the wire packet adds 40 bytes of TCP/IP
// header).
const (
	// MSS is the maximum segment size in payload bytes.
	MSS = 1460
	// HeaderSize is the TCP/IP header overhead per packet in bytes.
	HeaderSize = 40
	// AckSize is the wire size of a pure ACK in bytes.
	AckSize = HeaderSize
)

// MaxSackBlocks is the TCP option-space limit on SACK ranges per ACK.
const MaxSackBlocks = 3

// SackBlock is one selectively acknowledged byte range [Start, End).
type SackBlock struct {
	Start, End int64
}

// Packet is the unit of transmission. Packets are passed by pointer and
// owned by exactly one component at a time; they are never shared between
// hops.
type Packet struct {
	ID   uint64
	Flow FlowID
	Src  NodeID
	Dst  NodeID

	// Size is the total wire size in bytes (payload + header).
	Size int
	// Payload is the number of application bytes carried (0 for pure
	// ACKs).
	Payload int
	// Seq is the sequence number of the first payload byte.
	Seq int64

	// Ack is the cumulative acknowledgement: the next byte expected by
	// the receiver. Only meaningful when IsAck.
	Ack int64
	// Sack carries up to MaxSackBlocks selective-acknowledgement ranges
	// of out-of-order data held by the receiver (empty unless the
	// connection negotiated SACK).
	Sack []SackBlock

	// IsAck marks a pure acknowledgement. (It sits with the other flags,
	// where the path below fits the padding: a packet stays 144 bytes, see
	// TestHotStructSizeClasses.)
	IsAck bool
	// ECT marks an ECN-capable transport; CE is set by a congested queue;
	// ECE echoes CE back to the sender on an ACK.
	ECT bool
	CE  bool
	ECE bool
	// path is the path the packet was sent along (Path.Send); its zero
	// value makes forwarding look every hop up.
	path Path

	// SentAt is stamped by the sending endpoint; Echo carries the
	// timestamp being echoed back on an ACK so the sender can compute
	// RTT with its own clock.
	SentAt sim.Time
	Echo   sim.Time

	// Probe marks a TCP-TRIM probe packet (for tracing/diagnostics; the
	// sender tracks probes by sequence number, not by this flag).
	Probe bool

	// Retransmit marks a retransmitted segment.
	Retransmit bool

	// RecoverySignal marks a switch-originated loss-recovery signal (a
	// T-RACKs agent injection, see tracks.go): an ACK-shaped packet
	// carrying the last cumulative ACK the switch observed for the flow.
	// It rides the normal pipes — and so is subject to the same faults —
	// but never originates at an endpoint.
	RecoverySignal bool

	// pooled marks packets allocated from a Network's free list; inPool
	// guards against double release. Hand-built packets have both false
	// and are never recycled.
	pooled bool
	inPool bool

	// wire is the pipe whose pending event carries the packet: set when a
	// pipe arms its transmit-done or arrival event, and kept on release so
	// the invariant checker can still name the pipe of an event that
	// carries a packet already back in the pool.
	wire *Pipe

	// Hops counts forwarding steps, guarding against routing loops.
	Hops int
}

// String renders a compact human-readable packet description for traces.
func (p *Packet) String() string {
	kind := "data"
	if p.IsAck {
		kind = "ack"
	}
	if p.Probe {
		kind += "/probe"
	}
	return fmt.Sprintf("pkt{%d flow=%d %d->%d %s seq=%d ack=%d size=%d}",
		p.ID, p.Flow, p.Src, p.Dst, kind, p.Seq, p.Ack, p.Size)
}
