package netsim

import (
	"tcptrim/internal/aqm"
	"tcptrim/internal/sim"
)

// QueueStats aggregates lifetime counters for one queue. Dropped is the
// total of all congestion drops; TailDrops, EarlyDrops, and HeadDrops
// split it by cause so experiment captions can distinguish a full buffer
// (tail) from an AQM decision (RED's probabilistic early drop, CoDel's
// sojourn-time head drop). Under the default drop-tail discipline every
// drop is a tail drop, preserving the historical meaning of Dropped.
type QueueStats struct {
	Enqueued int
	Dropped  int
	Marked   int
	MaxLen   int // packets
	MaxBytes int

	// DroppedBytes totals the wire bytes of all dropped packets.
	DroppedBytes int
	// TailDrops are rejections for lack of buffer space.
	TailDrops int
	// EarlyDrops are AQM probabilistic drops decided at enqueue (RED).
	EarlyDrops int
	// HeadDrops are AQM drops decided at dequeue (CoDel).
	HeadDrops int
}

// Queue is a switch egress queue with capacity expressed in packets
// and/or bytes (zero means "no limit in that unit"). Admission, ECN
// marking, head drops, and priority placement are delegated to an aqm
// Discipline; the default discipline reproduces the COTS-switch model
// the paper assumes (tail drop, instantaneous-queue ECN marking at
// enqueue time, DCTCP style) exactly.
//
// Storage is two FIFO bands: the favoured band (used only when the
// discipline issues Favour verdicts, e.g. FavourQueue) drains strictly
// before the main band. Both share the configured capacity. A band is a
// slice consumed from head; it restarts at slot 0 whenever it drains (see
// pop), so a port that mostly queues one packet stays in one cache line.
type Queue struct {
	capPackets int
	capBytes   int

	disc   aqm.Discipline
	clock  func() sim.Time
	dropFn func(*Packet)

	main, fav band

	bytes int
	stats QueueStats

	// tail is the default discipline, held by value so that a drop-tail
	// queue costs no allocation of its own; disc points at it. Under
	// another discipline it is unused.
	tail aqm.DropTailDiscipline
}

// band is one FIFO of queued packets, each with its enqueue instant,
// consumed from head.
type band struct {
	slots []queued
	head  int
}

type queued struct {
	pkt *Packet
	at  sim.Time
}

func (b *band) len() int { return len(b.slots) - b.head }

// QueueConfig configures a Queue.
type QueueConfig struct {
	// CapPackets limits the queue length in packets (0 = unlimited).
	CapPackets int
	// CapBytes limits the queue length in bytes (0 = unlimited).
	CapBytes int
	// ECNThresholdPackets enables DCTCP-style marking when the
	// instantaneous queue length reaches this many packets (0 = off).
	// The threshold is interpreted by the discipline; drop-tail and
	// FavourQueue apply it verbatim, RED and CoDel use their own marking
	// rules instead.
	ECNThresholdPackets int
	// ECNThresholdBytes enables marking on queued bytes (0 = off).
	ECNThresholdBytes int
	// AQM selects the queue discipline. The zero value is drop-tail,
	// byte-identical to the historical hard-coded behavior.
	AQM aqm.Config
}

// limits maps the config onto the discipline's view of the queue.
func (cfg QueueConfig) limits() aqm.Limits {
	return aqm.Limits{
		CapPackets:          cfg.CapPackets,
		CapBytes:            cfg.CapBytes,
		ECNThresholdPackets: cfg.ECNThresholdPackets,
		ECNThresholdBytes:   cfg.ECNThresholdBytes,
	}
}

// NewQueue builds a queue from cfg with a fresh discipline instance
// (disciplines hold per-queue state and are never shared): drop-tail in
// the queue itself, any other built by cfg.AQM. An unknown AQM kind is a
// configuration bug and panics at build time.
func NewQueue(cfg QueueConfig) *Queue {
	q := new(Queue)
	q.init(cfg, nil, nil)
	return q
}

// init builds the queue in place with its clock and drop handler: the one
// initializer of NewQueue and Network.Connect.
func (q *Queue) init(cfg QueueConfig, clock func() sim.Time, dropFn func(*Packet)) {
	*q = Queue{
		capPackets: cfg.CapPackets,
		capBytes:   cfg.CapBytes,
		clock:      clock,
		dropFn:     dropFn,
	}
	if cfg.AQM.Kind == aqm.DropTail {
		q.tail = aqm.MakeDropTail(cfg.limits())
		q.disc = &q.tail
		return
	}
	q.disc = cfg.AQM.MustBuild(cfg.limits())
}

// SetClock installs the simulation clock the queue stamps enqueue times
// with and passes to the discipline (sojourn-time AQMs need it). A nil
// clock — hand-built queues in unit tests — pins time at zero.
func (q *Queue) SetClock(fn func() sim.Time) { q.clock = fn }

// SetDropHandler installs the release hook for packets the discipline
// drops from the head of the queue (tail drops are rejected at Enqueue
// and released by the caller). Network.Connect points it at the packet
// pool; without one, head-dropped packets are simply discarded.
func (q *Queue) SetDropHandler(fn func(*Packet)) { q.dropFn = fn }

// Discipline exposes the queue's AQM policy (for stats reporting).
func (q *Queue) Discipline() aqm.Discipline { return q.disc }

// AQMStats returns the discipline's counter snapshot.
func (q *Queue) AQMStats() aqm.Stats { return q.disc.Stats() }

// Len returns the instantaneous queue length in packets.
func (q *Queue) Len() int { return q.main.len() + q.fav.len() }

// Bytes returns the instantaneous queued bytes.
func (q *Queue) Bytes() int { return q.bytes }

// Stats returns a copy of the lifetime counters.
func (q *Queue) Stats() QueueStats { return q.stats }

func (q *Queue) now() sim.Time {
	if q.clock == nil {
		return 0
	}
	return q.clock()
}

// Enqueue offers p to the discipline and appends it on admission. It
// reports whether the packet was accepted; a rejected packet has been
// counted as dropped and must be released by the caller.
func (q *Queue) Enqueue(p *Packet) bool {
	now := q.now()
	v := q.disc.OnEnqueue(aqmPkt(p), aqm.State{Len: q.Len(), Bytes: q.bytes}, now)
	if v.Drop {
		q.stats.Dropped++
		q.stats.DroppedBytes += p.Size
		if v.Early {
			q.stats.EarlyDrops++
		} else {
			q.stats.TailDrops++
		}
		return false
	}
	if v.Mark && p.ECT {
		p.CE = true
		q.stats.Marked++
	}
	b := &q.main
	if v.Favour {
		b = &q.fav
	}
	b.slots = append(b.slots, queued{p, now})
	q.bytes += p.Size
	q.stats.Enqueued++
	if l := q.Len(); l > q.stats.MaxLen {
		q.stats.MaxLen = l
	}
	if q.bytes > q.stats.MaxBytes {
		q.stats.MaxBytes = q.bytes
	}
	return true
}

// Dequeue removes and returns the next deliverable packet, or nil when
// empty. The discipline inspects each departing head packet (with its
// sojourn time and the occupancy remaining behind it); a Drop verdict
// releases the packet via the drop handler and the next head is offered,
// so one Dequeue call may consume several queued packets.
func (q *Queue) Dequeue() *Packet {
	for {
		p, enq := q.pop()
		if p == nil {
			return nil
		}
		now := q.now()
		v := q.disc.OnDequeue(aqmPkt(p), now.Sub(enq), aqm.State{Len: q.Len(), Bytes: q.bytes}, now)
		q.disc.OnRemove(aqmPkt(p))
		if v.Drop {
			q.stats.Dropped++
			q.stats.DroppedBytes += p.Size
			q.stats.HeadDrops++
			if q.dropFn != nil {
				q.dropFn(p)
			}
			continue
		}
		if v.Mark && p.ECT {
			p.CE = true
			q.stats.Marked++
		}
		return p
	}
}

// DrainOne removes and returns the head packet without consulting the
// discipline's dequeue verdicts: the caller (the fault layer blackholing
// a downed link's backlog) owns the drop decision and its accounting, so
// AQM counters must not claim these packets. The discipline is still
// notified of the departure to keep per-flow state exact.
func (q *Queue) DrainOne() *Packet {
	p, _ := q.pop()
	if p == nil {
		return nil
	}
	q.disc.OnRemove(aqmPkt(p))
	return p
}

// pop removes the head packet — favoured band first — returning it with
// its enqueue instant. A band that drains restarts at the front of its
// array; otherwise it compacts once the dead prefix dominates, amortized O(1).
func (q *Queue) pop() (*Packet, sim.Time) {
	b := &q.fav
	if b.len() == 0 {
		b = &q.main
		if b.len() == 0 {
			return nil, 0
		}
	}
	e := b.slots[b.head]
	b.slots[b.head].pkt = nil
	b.head++
	q.bytes -= e.pkt.Size
	if b.head == len(b.slots) {
		b.slots, b.head = b.slots[:0], 0
	} else if b.head > 64 && b.head*2 >= len(b.slots) {
		b.slots, b.head = b.slots[:copy(b.slots, b.slots[b.head:])], 0
	}
	return e.pkt, e.at
}

// aqmPkt projects the discipline-visible fields of a packet.
func aqmPkt(p *Packet) aqm.Pkt {
	return aqm.Pkt{Size: p.Size, ECT: p.ECT, Flow: uint64(p.Flow)}
}
