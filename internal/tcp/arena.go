package tcp

import (
	"fmt"
	"time"
)

// connHot is the per-connection hot state: the sequence pointers, the
// congestion window, and the RTT estimator — the fields every ACK and
// every send touch. It is exactly one 64-byte cache line, so an arena
// slab packs the hot lines of its connections contiguously while the cold
// remainder of Conn stays behind the pointer.
type connHot struct {
	sndUna  int64
	sndNxt  int64
	maxSent int64
	bufEnd  int64

	cwnd     float64
	ssthresh float64

	srtt   time.Duration
	rttvar time.Duration
}

// arenaSlabSize is the number of hot records per slab. Slabs are never
// reallocated, so &slab[i] stays stable for the arena's lifetime.
const arenaSlabSize = 1024

// Arena is a slab allocator for connection hot state and a free list of
// whole connection shells. Freed slots and shells are
// recycled LIFO, keeping the working set of a materialize/detach churn
// (the hybrid-fidelity fleet's steady state) inside a few hot cache
// lines, and its garbage at zero, regardless of how many connections
// have ever existed. It also lists which of its connections ran since
// anyone last asked (DrainTouched), so that whoever demotes quiescent
// connections looks at those and not at every live one. Not safe for
// concurrent use.
type Arena struct {
	slabs [][]connHot
	free  []int32
	next  int32
	inUse []bool
	// shells are detached connections waiting for their next life: the
	// Conn struct and the storage of its trains/sacked/ooo slices. Each
	// waits with hot == nil, so a stale reference faults until NewConn
	// hands the shell out again.
	shells []*Conn
	// touched holds each connection that ran an entry point (see
	// Conn.touch) since the last DrainTouched, once.
	touched []*Conn
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// Live returns the number of slots currently allocated.
func (a *Arena) Live() int { return int(a.next) - len(a.free) }

// Cap returns the total slots ever created (live + recyclable).
func (a *Arena) Cap() int { return int(a.next) }

// alloc hands out a zeroed hot record and its slot index, recycling the
// most recently freed slot first.
func (a *Arena) alloc() (*connHot, int32) {
	var slot int32
	if n := len(a.free); n > 0 {
		slot = a.free[n-1]
		a.free = a.free[:n-1]
	} else {
		slot = a.next
		a.next++
		if int(slot)/arenaSlabSize >= len(a.slabs) {
			a.slabs = append(a.slabs, make([]connHot, arenaSlabSize))
		}
		a.inUse = append(a.inUse, false)
	}
	if a.inUse[slot] {
		panic(fmt.Sprintf("tcp: arena slot %d allocated twice", slot))
	}
	a.inUse[slot] = true
	h := a.at(slot)
	*h = connHot{}
	return h, slot
}

// release returns a slot to the arena. Releasing a slot twice, or one the
// arena never issued, panics: aliasing a recycled hot record with a live
// connection would corrupt both silently.
func (a *Arena) release(slot int32) {
	if slot < 0 || slot >= a.next {
		panic(fmt.Sprintf("tcp: arena release of unissued slot %d (cap %d)", slot, a.next))
	}
	if !a.inUse[slot] {
		panic(fmt.Sprintf("tcp: arena slot %d released twice", slot))
	}
	a.inUse[slot] = false
	a.free = append(a.free, slot)
}

// shell hands out a connection shell, the most recently detached first.
// A recycled shell keeps only plain storage — the emptied train ring and
// slices (Conn.reset) — and is zero everywhere else, so NewConn fills a
// recycled shell and a fresh one the same way.
func (a *Arena) shell() *Conn {
	n := len(a.shells)
	if n == 0 {
		return &Conn{}
	}
	c := a.shells[n-1]
	a.shells[n-1] = nil
	a.shells = a.shells[:n-1]
	c.reset()
	return c
}

// noteTouched is the slow half of Conn.touch.
//
//go:noinline
func (a *Arena) noteTouched(c *Conn) {
	c.touched = true
	a.touched = append(a.touched, c)
}

// DrainTouched hands visit every connection of this arena that has run
// since the previous call — it was created, given a train, received an
// ACK or a data segment, or had a retransmission, delayed-ACK or policy
// timer fire — and forgets them. A connection can only have become
// Quiescent inside one of those entry points, so between two drains every
// connection that turned quiescent is on the list. A listed connection
// may have been detached since it was touched; visit must tell (the
// caller knows which connections it holds). visit may Detach but must not
// otherwise drive a connection. Call from an event of your own, never from
// inside one of a connection's.
func (a *Arena) DrainTouched(visit func(*Conn)) {
	for i, c := range a.touched {
		a.touched[i] = nil
		c.touched = false
		visit(c)
	}
	a.touched = a.touched[:0]
}

// at returns the record backing slot.
func (a *Arena) at(slot int32) *connHot {
	return &a.slabs[int(slot)/arenaSlabSize][int(slot)%arenaSlabSize]
}
