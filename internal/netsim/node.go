package netsim

import "tcptrim/internal/sim"

// Node is anything that can terminate or forward packets.
type Node interface {
	// ID returns the node's identity within its Network.
	ID() NodeID
	// Name returns a human-readable label for traces.
	Name() string
	// Receive handles a packet arriving over from.
	Receive(pkt *Packet, from *Pipe)
}

// Handler consumes packets delivered to a host.
type Handler func(pkt *Packet)

// maxHops guards against routing loops; no reproduced topology has paths
// anywhere near this long.
const maxHops = 64

// Host is an end system: packets addressed to it are delivered to its
// handler, anything else is forwarded (hosts in the reproduced topologies
// never actually forward, but the behavior is well defined).
type Host struct {
	net     *Network
	id      NodeID
	name    string
	handler Handler
	tap     Handler
}

var _ Node = (*Host)(nil)

// ID implements Node.
func (h *Host) ID() NodeID { return h.id }

// Name implements Node.
func (h *Host) Name() string { return h.name }

// Network returns the network this host belongs to (the transport layer
// uses it to reach the packet free list).
func (h *Host) Network() *Network { return h.net }

// Scheduler returns the scheduler driving this host's events.
func (h *Host) Scheduler() *sim.Scheduler { return h.net.sched }

// AllocPacket draws a packet from the network's pool.
func (h *Host) AllocPacket() *Packet { return h.net.AllocPacket() }

// SetHandler installs the delivery callback for packets addressed to this
// host. The transport layer installs its demultiplexer here.
func (h *Host) SetHandler(fn Handler) { h.handler = fn }

// SetTap installs a passive observer invoked for every packet delivered
// to this host, before the handler. Experiments use it to capture traces
// (the paper's Fig. 1 packet-train methodology) without disturbing the
// transport.
func (h *Host) SetTap(fn Handler) { h.tap = fn }

// Receive implements Node.
func (h *Host) Receive(pkt *Packet, _ *Pipe) {
	if pkt.Dst == h.id {
		h.deliver(pkt)
		return
	}
	h.net.forward(h.id, pkt)
}

// Send injects a packet originated by this host into the network.
func (h *Host) Send(pkt *Packet) {
	if pkt.Dst == h.id {
		// Loopback: deliver immediately at the current instant.
		h.deliver(pkt)
		return
	}
	h.net.forward(h.id, pkt)
}

// deliver runs the tap and handler, then recycles the packet: delivery is
// the end of a packet's life, and neither taps nor handlers may retain it
// (or its Sack slice) past their return.
func (h *Host) deliver(pkt *Packet) {
	if h.tap != nil {
		h.tap(pkt)
	}
	if h.handler != nil {
		h.handler(pkt)
	}
	h.net.ReleasePacket(pkt)
}

// Switch is a store-and-forward switch. Each egress port is a Pipe with
// its own drop-tail queue; the switch itself only performs the routing
// decision.
type Switch struct {
	net  *Network
	id   NodeID
	name string
	tap  Handler
}

var _ Node = (*Switch)(nil)

// ID implements Node.
func (s *Switch) ID() NodeID { return s.id }

// Name implements Node.
func (s *Switch) Name() string { return s.name }

// SetTap installs a passive observer invoked for every packet the switch
// forwards (the T-RACKs agent's vantage point). Taps must not retain the
// packet or its Sack slice past their return.
func (s *Switch) SetTap(fn Handler) { s.tap = fn }

// Receive implements Node.
func (s *Switch) Receive(pkt *Packet, _ *Pipe) {
	if s.tap != nil {
		s.tap(pkt)
	}
	s.net.forward(s.id, pkt)
}
