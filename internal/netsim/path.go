package netsim

import (
	"fmt"

	"tcptrim/internal/sim"
)

// maxPathHops is the longest path a Path holds; a longer one is forwarded
// hop by hop. Every reproduced topology's paths are shorter (a fat-tree's
// cross-pod path is six hops).
const maxPathHops = 8

// Path is a flow's route from its source host to its destination, resolved
// through the forwarding state once and then carried by every packet the
// flow sends along it (Send): forwarding reads each hop's egress port from
// the packet instead of looking the hop up. A path holds the port of each
// hop as an index into the node's pipes, so it is a value the flow owns and
// costs no allocation; ECMP choices are resolved into it. It is stamped
// with the routing generation it was resolved in and dies with that
// routing state (AddHost, AddSwitch and Connect drop it, and so does
// Recycle for the network recycled): Send then resolves it afresh, and a
// packet still on the wire goes on hop by hop. The zero Path resolves on
// first use. A Path serves one flow from one host to one destination.
type Path struct {
	gen   uint32 // routing generation resolved in; 0: none
	ports [maxPathHops]uint8
}

// Send is Host.Send along p: it injects pkt, originated by h, into the
// network, resolving p first when it does not hold a path of h's current
// routing state. pkt must belong to the flow p serves.
func (p *Path) Send(h *Host, pkt *Packet) {
	if pkt.Dst == h.id {
		h.deliver(pkt)
		return
	}
	n := h.net
	if p.gen != n.routeGen {
		*p = n.resolve(h.id, pkt.Dst, pkt.Flow)
		if sim.InvariantChecks() {
			n.checkPath(*p, h.id, pkt)
		}
	}
	pkt.path = *p
	n.forward(h.id, pkt)
}

// resolve walks the forwarding state from src to dst as flow's packets
// would be forwarded hop by hop, and returns the path of the ports it took:
// the zero Path when dst is not reachable within maxPathHops hops through
// ports a Path can name.
func (n *Network) resolve(src, dst NodeID, flow FlowID) Path {
	p := Path{gen: n.routeGen}
	hops := 0
	for node := src; node != dst; hops++ {
		var pipe *Pipe
		if hops < maxPathHops {
			pipe = n.nextHop(node, dst, flow)
		}
		if pipe == nil {
			return Path{}
		}
		port := n.portOf(node, pipe)
		if port > 255 {
			return Path{}
		}
		p.ports[hops] = uint8(port)
		node = pipe.to.ID()
	}
	return p
}

// portOf returns the index of pipe among node's pipes.
func (n *Network) portOf(node NodeID, pipe *Pipe) int {
	for i, q := range n.out[node] {
		if q == pipe {
			return i
		}
	}
	panic(fmt.Sprintf("netsim: pipe %s->%s does not leave node %d", pipe.from.Name(), pipe.to.Name(), node))
}

// checkPath verifies, under invariant checks, that p walks from src to
// pkt's destination through exactly the pipes hop-by-hop forwarding picks.
func (n *Network) checkPath(p Path, src NodeID, pkt *Packet) {
	if p.gen == 0 {
		return
	}
	lookups := n.stats.RouteLookups
	node := src
	for hop := 0; node != pkt.Dst; hop++ {
		if hop == maxPathHops {
			panic(fmt.Sprintf("netsim: the path of %s does not reach its destination", pkt))
		}
		pipe := n.out[node][p.ports[hop]]
		if want := n.nextHop(node, pkt.Dst, pkt.Flow); pipe != want {
			panic(fmt.Sprintf("netsim: the path of %s leaves node %d through %s->%s, forwarding says %s->%s",
				pkt, node, pipe.from.Name(), pipe.to.Name(), want.from.Name(), want.to.Name()))
		}
		node = pipe.to.ID()
	}
	n.stats.RouteLookups = lookups // the check is not forwarding
}
