package tcp

import (
	"fmt"

	"tcptrim/internal/netsim"
)

// Stack is the per-host transport demultiplexer. It installs itself as the
// host's packet handler and routes ACKs to sending connections and data to
// receiving connections by flow id.
type Stack struct {
	net   *netsim.Network
	host  *netsim.Host
	send  flowTable
	recv  flowTable
	stray int
}

// NewStack attaches a transport stack to host.
func NewStack(net *netsim.Network, host *netsim.Host) *Stack {
	s := &Stack{
		net:  net,
		host: host,
	}
	host.SetHandler(s.dispatch)
	return s
}

// Host returns the underlying host.
func (s *Stack) Host() *netsim.Host { return s.host }

// Sender returns the connection registered to send flow from this stack,
// or nil.
func (s *Stack) Sender(flow netsim.FlowID) *Conn { return s.send.get(flow) }

// StrayPackets returns the number of packets received with no matching
// connection (useful for catching wiring mistakes in experiments).
func (s *Stack) StrayPackets() int { return s.stray }

func (s *Stack) dispatch(pkt *netsim.Packet) {
	if pkt.IsAck {
		if c := s.send.get(pkt.Flow); c != nil {
			c.handleAck(pkt)
			return
		}
	} else if c := s.recv.get(pkt.Flow); c != nil {
		c.handleData(pkt)
		return
	}
	s.stray++
}

func (s *Stack) registerSender(flow netsim.FlowID, c *Conn) error {
	if !s.send.put(flow, c) {
		return fmt.Errorf("tcp: flow %d already has a sender on %s", flow, s.host.Name())
	}
	return nil
}

func (s *Stack) registerReceiver(flow netsim.FlowID, c *Conn) error {
	if !s.recv.put(flow, c) {
		return fmt.Errorf("tcp: flow %d already has a receiver on %s", flow, s.host.Name())
	}
	return nil
}

// ReserveFlows tells the stack that it will carry the n flows numbered
// from first, in whatever order they register: each direction's dense
// table is then allocated once, at its first registration inside that
// range, instead of growing (and, at every new smallest id, shifting)
// as ids arrive. A direction that already has a table keeps it.
func (s *Stack) ReserveFlows(first netsim.FlowID, n int) {
	s.send.reserve(first, n)
	s.recv.reserve(first, n)
}

// unregisterSender and unregisterReceiver forget a flow (Conn.Detach);
// a packet of the flow arriving afterwards counts as stray.
func (s *Stack) unregisterSender(flow netsim.FlowID)   { s.send.del(flow) }
func (s *Stack) unregisterReceiver(flow netsim.FlowID) { s.recv.del(flow) }

// maxDenseFlowSpan bounds the dense table's id span (entries, 8 B each):
// flows within the span resolve by one bounds-checked index on the
// per-packet dispatch path; pathological outliers spill to a map instead
// of growing the slice without bound.
const maxDenseFlowSpan = 1 << 22

// flowTable maps flow ids to connections. Experiments assign flow ids
// densely (httpapp numbers them sequentially per fleet), so the table is
// a base-offset slice — dispatch, the hottest per-packet path on
// front-end hosts, replaces a map lookup with an index. Ids far outside
// the dense span fall back to a spill map; lookups stay correct either
// way.
type flowTable struct {
	base  netsim.FlowID
	dense []*Conn
	spill map[netsim.FlowID]*Conn
	// reserved is the span announced by Stack.ReserveFlows, counted from
	// base; it matters only until dense exists.
	reserved int
}

// reserve records the id range the table will be asked to hold.
func (t *flowTable) reserve(first netsim.FlowID, n int) {
	if t.dense == nil && n > 0 && n <= maxDenseFlowSpan {
		t.base, t.reserved = first, n
	}
}

// get returns the connection registered for f, or nil.
func (t *flowTable) get(f netsim.FlowID) *Conn {
	if i := uint64(f) - uint64(t.base); i < uint64(len(t.dense)) {
		return t.dense[i]
	}
	if t.spill == nil {
		return nil
	}
	return t.spill[f]
}

// put registers c under f; it reports false when f is already taken.
func (t *flowTable) put(f netsim.FlowID, c *Conn) bool {
	if t.get(f) != nil {
		return false
	}
	if t.dense == nil {
		if i := uint64(f) - uint64(t.base); i < uint64(t.reserved) {
			t.dense = make([]*Conn, t.reserved)
			t.dense[i] = c
			return true
		}
		t.base = f
		t.dense = append(t.dense, c)
		return true
	}
	if f >= t.base {
		i := uint64(f) - uint64(t.base)
		if i < maxDenseFlowSpan {
			for uint64(len(t.dense)) <= i {
				t.dense = append(t.dense, nil)
			}
			t.dense[i] = c
			return true
		}
	} else if span := uint64(t.base) - uint64(f) + uint64(len(t.dense)); span <= maxDenseFlowSpan {
		// A smaller id than the base: shift the table down (rare — flows
		// are almost always registered in ascending order).
		shifted := make([]*Conn, span)
		copy(shifted[t.base-f:], t.dense)
		shifted[0] = c
		t.base, t.dense = f, shifted
		return true
	}
	if t.spill == nil {
		t.spill = make(map[netsim.FlowID]*Conn)
	}
	t.spill[f] = c
	return true
}

// del forgets f.
func (t *flowTable) del(f netsim.FlowID) {
	if i := uint64(f) - uint64(t.base); i < uint64(len(t.dense)) {
		t.dense[i] = nil
		return
	}
	delete(t.spill, f)
}
