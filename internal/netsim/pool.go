package netsim

import "fmt"

// Packet recycling. Steady-state simulation churns through millions of
// packets whose lifetime is a handful of events (serialize → propagate →
// deliver or drop); allocating each one individually makes the garbage
// collector the bottleneck of large-scale experiments. Every Network owns
// a packet free list instead: the transport layer allocates from it and
// the network layer returns packets at their well-defined death points
// (delivery to a host handler, tail drop, injected loss, routing drop).
// A recycled network inherits its free list from the one before it.
//
// Packets built by hand (&Packet{...}, as tests do) are not marked
// pooled and are ignored by release, which keeps external ownership
// semantics unchanged: only packets obtained from AllocPacket are ever
// recycled.

// PoolStats counts packet free-list traffic.
type PoolStats struct {
	// Allocs counts AllocPacket calls that had to allocate a fresh packet.
	Allocs int
	// Reuses counts AllocPacket calls served from the free list.
	Reuses int
	// Releases counts packets returned to the free list.
	Releases int
}

// pktPool is the packet free list, the unused rest of the last slab of
// fresh packets, and its ledger.
type pktPool struct {
	free  []*Packet
	slab  []Packet
	slabs [][]Packet // every slab made, for Recycle to reclaim
	stats PoolStats
	live  int // allocations minus releases
	// inherited counts the packets at the bottom of free that Recycle
	// gave: handing one out is an allocation, as on a fresh network.
	inherited int
}

// AllocPacket returns a zeroed packet owned by the caller, drawn from the
// network's pool. The packet's Sack slice retains its previous capacity so
// SACK-carrying ACKs do not reallocate in steady state. With the free list
// empty it hands out the next packet of a slab of 16 (16 × 144 B is a
// malloc size class), so fresh packets cost one allocation per slab. A
// recycled network hands out the packets it inherited before it makes a
// slab, and counts them in PoolStats.Allocs. The caller must hand the
// packet to the network (Host.Send) or return it with ReleasePacket.
func (n *Network) AllocPacket() *Packet {
	pool := &n.pool
	pool.live++
	if l := len(pool.free); l > 0 {
		p := pool.free[l-1]
		pool.free[l-1] = nil
		pool.free = pool.free[:l-1]
		p.inPool = false
		if l > pool.inherited {
			pool.stats.Reuses++
		} else {
			pool.inherited--
			pool.stats.Allocs++
		}
		return p
	}
	pool.stats.Allocs++
	if len(pool.slab) == 0 {
		if pool.slabs == nil {
			pool.slabs = make([][]Packet, 0, 16) // no growth below 256 packets
		}
		pool.slab = make([]Packet, 16)
		pool.slabs = append(pool.slabs, pool.slab)
	}
	p := &pool.slab[0]
	pool.slab = pool.slab[1:]
	p.pooled = true
	return p
}

// ReleasePacket returns a packet obtained from AllocPacket to the free
// list, zeroing every field but its Sack capacity and its wire. Packets not
// allocated from any pool (built by hand, as tests do) are ignored, so
// callers may release unconditionally at packet-death points. Releasing
// the same packet twice is a bug — an aliased reference now points into
// the free list — and panics when the network's scheduler has invariant
// checks armed (sim.Config.Checks); otherwise the duplicate release is
// dropped.
func (n *Network) ReleasePacket(p *Packet) {
	if p == nil || !p.pooled {
		return
	}
	pool := &n.pool
	if p.inPool {
		if n.sched.Config().Checks {
			panic(fmt.Sprintf("netsim: double release of pooled packet (pool=%d live=%d)",
				len(pool.free), n.LivePackets()))
		}
		return
	}
	pool.live--
	pool.stats.Releases++
	// Zeroed in place: a literal that also set wire would be built aside
	// and copied, a quarter more per tail drop (go1.24).
	sack, wire := p.Sack[:0], p.wire
	*p = Packet{pooled: true, inPool: true, Sack: sack}
	p.wire = wire
	pool.free = append(pool.free, p)
}

// PoolStats returns the packet free-list counters.
func (n *Network) PoolStats() PoolStats { return n.pool.stats }

// LivePackets returns the number of pooled packets currently outside the
// free list. At quiescence (scheduler drained, queues empty) it is zero:
// every packet has reached one of its death points and been recycled.
func (n *Network) LivePackets() int { return n.pool.live }

// Recycle gives n, whose topology is built and which has not allocated a
// packet yet, the storage of old, which must not be used again: every
// packet old made, zeroed but for its Sack capacity, the band storage of
// old's queues, emptied, for n's queues in cable order, and the storage
// and scratch of its route builds, which drops any route and Path n built
// or old's flows hold. Nothing in n keeps old's world reachable.
// Recycle(nil) does nothing.
func (n *Network) Recycle(old *Network) {
	if old == nil {
		return
	}
	if n.pool.stats != (PoolStats{}) {
		panic("netsim: Recycle on a network that has allocated packets")
	}
	// A packet old left on the wire is reclaimed too: its wire would keep
	// old's world reachable through the slab it shares with the others.
	free := old.pool.free[:0]
	for _, s := range old.pool.slabs {
		for i := range s {
			if p := &s[i]; p.pooled {
				*p = Packet{pooled: true, inPool: true, Sack: p.Sack[:0]}
				free = append(free, p)
			}
		}
	}
	n.pool = pktPool{free: free, slab: old.pool.slab, slabs: old.pool.slabs, inherited: len(free)}
	n.bfsDist, n.bfsQueue = old.bfsDist, old.bfsQueue[:0]
	n.rows, n.flat, n.comp, n.built, n.ecmp = old.rows[:0], old.flat[:0], old.comp[:0], old.built[:0], nil
	// No Path of old's, or resolved on n before, holds on n.
	n.routeGen = max(n.routeGen, old.routeGen) + 1
	from, u := []*Pipe(nil), 0 // from: the pipes of old.out[u-1] not handed on yet
	for _, pipes := range n.out {
		for _, p := range pipes {
			for ; len(from) == 0; u++ {
				if u == len(old.out) {
					return
				}
				from = old.out[u]
			}
			q := &from[0].queue
			from = from[1:]
			clear(q.main.slots[:cap(q.main.slots)])
			clear(q.fav.slots[:cap(q.fav.slots)])
			p.queue.main.slots, p.queue.fav.slots = q.main.slots[:0], q.fav.slots[:0]
		}
	}
}
