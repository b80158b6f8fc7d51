package netsim

// Simulator invariant checking. The packet pool (pool.go) and the
// fault-injection layer (fault.go) both manipulate packet ownership by
// hand; a missed or doubled release would silently corrupt later
// simulations through the free list. The checker makes three structural
// properties loud:
//
//   - packet conservation: every pooled packet is either in the free list
//     or held exactly once by a pipe — in its queue, or carried by one of
//     its pending events (serializing, on the wire, or held back by a
//     reorder injector) — whenever the simulation is between events;
//   - no double release / no use-after-release (inline checks in
//     ReleasePacket and Pipe.Send, armed by the scheduler's Config, and
//     here: no pending event carries a packet that is back in the pool);
//   - queue occupancy within configured bounds.
//
// The pipes keep no record of the packets their events carry; the checker
// finds them with the scheduler's walk over its argument-carrying events,
// and each such packet names its pipe in its wire field.
// CheckInvariants allocates nothing once it has run and is cheap enough to
// run every few simulated milliseconds in the chaos experiments;
// violations panic with a per-pipe diagnostic dump.

import (
	"fmt"
	"strings"
	"time"
	"unsafe"
)

// queuedPooled counts the pooled packets in this pipe's queue.
func (p *Pipe) queuedPooled() int {
	n := 0
	for _, b := range [...]*band{&p.queue.main, &p.queue.fav} {
		for _, e := range b.slots[b.head:] {
			if e.pkt != nil && e.pkt.pooled {
				n++
			}
		}
	}
	return n
}

// wireRole is what a pending pipe event does with the packet it carries.
type wireRole struct {
	pipe *Pipe
	tx   bool // transmit-done: the packet is serializing; else it is arriving
}

// callbackID identifies a func value by its closure.
func callbackID(fn func(unsafe.Pointer)) unsafe.Pointer {
	return *(*unsafe.Pointer)(unsafe.Pointer(&fn))
}

// The closures of the two pipe callbacks: every pipe event holds one.
var txDoneID, deliverID = callbackID(pipeTxDone), callbackID(pipeDeliver)

// walkWire visits every packet a pending event carries to one of the
// network's pipes, with what the event will do with it. A pipe event is
// recognised by its callback, its pipe is the packet's wire, and packets
// on another network's wires (one scheduler may drive several) are
// skipped.
func (n *Network) walkWire(visit func(pkt *Packet, r wireRole)) {
	n.sched.WalkFIFO(func(fn func(unsafe.Pointer), arg unsafe.Pointer) {
		id := callbackID(fn)
		if id != txDoneID && id != deliverID {
			return
		}
		if pkt := (*Packet)(arg); pkt.wire.net == n {
			visit(pkt, wireRole{pkt.wire, id == txDoneID})
		}
	})
}

// checkBounds verifies the queue's occupancy against its configured
// capacities, returning a non-empty diagnostic on violation.
func (q *Queue) checkBounds() string {
	switch {
	case q.capPackets > 0 && q.Len() > q.capPackets:
		return fmt.Sprintf("queue holds %d packets, cap %d", q.Len(), q.capPackets)
	case q.capBytes > 0 && q.bytes > q.capBytes:
		return fmt.Sprintf("queue holds %d bytes, cap %d", q.bytes, q.capBytes)
	case q.bytes < 0:
		return fmt.Sprintf("queue byte count went negative: %d", q.bytes)
	case q.Len() < 0:
		return fmt.Sprintf("queue length went negative: %d", q.Len())
	}
	return ""
}

// CheckInvariants verifies packet conservation and queue bounds across the
// whole network, panicking with a diagnostic dump on violation. It must be
// called between simulation events (e.g. from its own scheduled event, or
// after the scheduler drained) — mid-event, a packet may legitimately be
// in transit between owners on the call stack.
func (n *Network) CheckInvariants() {
	// The scheduler's own structural walk (wheel slots, bitmaps, overflow
	// heap, live accounting) rides along: a corrupted timer structure
	// would surface as misdelivered packets long after the actual fault.
	n.sched.CheckAccounting()
	owned := 0
	var violations []string
	n.walkWire(func(pkt *Packet, r wireRole) {
		if !pkt.pooled {
			return
		}
		owned++
		if pkt.inPool {
			violations = append(violations, fmt.Sprintf(
				"pipe %s->%s: a pending event carries a packet already back in the pool",
				r.pipe.from.Name(), r.pipe.to.Name()))
		}
	})
	for _, pipes := range n.out {
		for _, p := range pipes {
			owned += p.queuedPooled()
			if msg := p.queue.checkBounds(); msg != "" {
				violations = append(violations,
					fmt.Sprintf("pipe %s->%s: %s", p.from.Name(), p.to.Name(), msg))
			}
		}
	}
	switch live := n.LivePackets(); {
	case owned < live:
		violations = append(violations, fmt.Sprintf(
			"packet conservation: %d pooled packets outstanding but %d held by pipes (%d leaked)",
			live, owned, live-owned))
	case owned > live:
		violations = append(violations, fmt.Sprintf(
			"packet conservation: %d pooled packets outstanding but %d held by pipes (%d held twice, or after release)",
			live, owned, owned-live))
	}
	if len(violations) == 0 {
		return
	}
	panic("netsim: invariant violation at " + n.sched.Now().String() + ":\n  " +
		strings.Join(violations, "\n  ") + "\n" + n.dumpState())
}

// dumpState renders the per-pipe ownership picture for invariant panics.
func (n *Network) dumpState() string {
	type carried struct{ tx, inFlight int }
	onWire := make(map[*Pipe]*carried)
	n.walkWire(func(_ *Packet, r wireRole) {
		c := onWire[r.pipe]
		if c == nil {
			c = &carried{}
			onWire[r.pipe] = c
		}
		if r.tx {
			c.tx++
		} else {
			c.inFlight++
		}
	})
	var b strings.Builder
	fmt.Fprintf(&b, "network state: live=%d free=%d pool=%+v stats=%+v\n",
		n.LivePackets(), len(n.pool.free), n.PoolStats(), n.Stats())
	for _, pipes := range n.out {
		for _, p := range pipes {
			c := onWire[p]
			if c == nil {
				c = &carried{}
			}
			fmt.Fprintf(&b,
				"  pipe %s->%s: queued=%d inflight=%d tx=%d down=%v aqm=%s stats=%+v qstats=%+v\n",
				p.from.Name(), p.to.Name(), p.queue.Len(), c.inFlight, c.tx, p.Down(),
				p.queue.disc.Name(), p.stats, p.queue.stats)
		}
	}
	return b.String()
}

// ScheduleInvariantChecks runs CheckInvariants every simulated interval
// for as long as other events remain pending; the chaos experiments use
// it to keep the fault layer honest throughout a run, not just at the
// end.
func (n *Network) ScheduleInvariantChecks(every time.Duration) {
	if every <= 0 {
		every = time.Millisecond
	}
	var tick func()
	tick = func() {
		n.CheckInvariants()
		if n.sched.Len() > 0 {
			n.sched.After(every, tick)
		}
	}
	n.sched.After(every, tick)
}
