package netsim

import (
	"fmt"
	"math/rand"
	"time"
	"unsafe"

	"tcptrim/internal/sim"
)

// Bitrate is a link transmission rate in bits per second.
type Bitrate int64

// Common rates.
const (
	Kbps Bitrate = 1_000
	Mbps Bitrate = 1_000_000
	Gbps Bitrate = 1_000_000_000
)

// TransmitTime returns the serialization delay of size bytes at rate r.
func (r Bitrate) TransmitTime(size int) time.Duration {
	if r <= 0 {
		return 0
	}
	return time.Duration(int64(size) * 8 * int64(time.Second) / int64(r))
}

// PacketsPerSecond returns the capacity of the link in packets of the
// given wire size per second — the "C" of the paper's Eq. 22.
func (r Bitrate) PacketsPerSecond(packetSize int) float64 {
	if packetSize <= 0 {
		return 0
	}
	return float64(r) / (8 * float64(packetSize))
}

// PipeStats aggregates lifetime counters for one pipe direction. The
// fault counters are split by injector so experiment output can attribute
// every injected loss to its cause, distinct from congestion tail drops
// (which are counted in the queue's QueueStats.Dropped).
type PipeStats struct {
	SentPackets int
	SentBytes   int64
	// LossDrops counts packets destroyed by injected uniform random loss.
	LossDrops int
	// BurstLossDrops counts packets destroyed by the Gilbert–Elliott
	// bursty-loss model.
	BurstLossDrops int
	// FlapDrops counts packets blackholed by a downed link: offered while
	// down, drained from the queue at the down edge, or already in flight
	// when the link died.
	FlapDrops int
	// Reordered counts packets held back for late out-of-order delivery.
	Reordered int
	// Duplicated counts injected packet clones.
	Duplicated int
}

// InjectedDrops totals the packets destroyed by fault injection, as
// opposed to congestion tail drops.
func (s PipeStats) InjectedDrops() int {
	return s.LossDrops + s.BurstLossDrops + s.FlapDrops
}

// Pipe is a unidirectional link: an egress queue feeding a transmitter
// with a fixed rate and propagation delay. A full-duplex cable is a pair
// of pipes created by Network.Connect.
type Pipe struct {
	sched *sim.Scheduler
	net   *Network
	from  Node
	to    Node
	rate  Bitrate
	delay time.Duration
	busy  bool
	// The scheduler lanes of the transmit-done and the arrival events.
	txLane, arriveLane sim.Lane
	stats              PipeStats

	// Failure injection: each offered packet is independently destroyed
	// with probability lossRate, drawn from rng. Both are nil/zero in
	// normal operation.
	lossRate float64
	rng      *rand.Rand

	// Jitter injection: each packet's propagation delay is stretched by
	// a uniform draw in [0, maxJitter]. FIFO order is preserved by never
	// letting an arrival precede the previous one.
	maxJitter   time.Duration
	jitterRng   *rand.Rand
	lastArrival sim.Time

	// faults holds the composable fault injectors (bursty loss, link
	// flaps, reordering, duplication); nil until one is configured. See
	// fault.go.
	faults *pipeFaults

	// queue is held by value, last: the transmitter's own fields above
	// share the pipe's first cache lines.
	queue Queue
}

// pipeTxDone and pipeDeliver are the callbacks of every pipe's events. The
// packet rides as the event's argument and names the pipe in its wire
// field: the scheduler's FIFO lanes are the wire, and no per-packet or
// per-pipe closure or second record exists.
func pipeTxDone(arg unsafe.Pointer) {
	pkt := (*Packet)(arg)
	pkt.wire.onTxDone(pkt)
}

func pipeDeliver(arg unsafe.Pointer) {
	pkt := (*Packet)(arg)
	pkt.wire.onDeliver(pkt)
}

// InjectJitter adds uniform random extra propagation delay in
// [0, maxJitter] per packet, preserving FIFO delivery order. A nil rng or
// non-positive maxJitter disables injection.
func (p *Pipe) InjectJitter(maxJitter time.Duration, rng *rand.Rand) {
	if maxJitter < 0 {
		maxJitter = 0
	}
	p.maxJitter = maxJitter
	p.jitterRng = rng
}

// InjectLoss enables random packet loss on this pipe direction for
// failure-injection tests. rate is clamped to [0, 1]; a nil rng disables
// injection.
func (p *Pipe) InjectLoss(rate float64, rng *rand.Rand) {
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	p.lossRate = rate
	p.rng = rng
}

// From returns the upstream node.
func (p *Pipe) From() Node { return p.from }

// To returns the downstream node.
func (p *Pipe) To() Node { return p.to }

// Rate returns the transmission rate.
func (p *Pipe) Rate() Bitrate { return p.rate }

// Delay returns the propagation delay.
func (p *Pipe) Delay() time.Duration { return p.delay }

// Queue exposes the egress queue (for monitoring and configuration
// inspection by experiments).
func (p *Pipe) Queue() *Queue { return &p.queue }

// Stats returns a copy of the transmit counters.
func (p *Pipe) Stats() PipeStats { return p.stats }

// Send offers pkt to the pipe. If the transmitter is idle the packet
// starts serializing immediately; otherwise it joins the egress queue
// (and may be tail-dropped).
func (p *Pipe) Send(pkt *Packet) {
	if p.sched.Config().Checks && pkt.inPool {
		panic(fmt.Sprintf("netsim: released packet offered to pipe %s->%s: %s",
			p.from.Name(), p.to.Name(), pkt))
	}
	if f := p.faults; f != nil {
		if f.down {
			p.stats.FlapDrops++
			p.net.ReleasePacket(pkt)
			return
		}
		if f.ge != nil && f.ge.drop() {
			p.stats.BurstLossDrops++
			p.net.ReleasePacket(pkt)
			return
		}
	}
	if p.rng != nil && p.lossRate > 0 && p.rng.Float64() < p.lossRate {
		p.stats.LossDrops++
		p.net.ReleasePacket(pkt)
		return
	}
	if !p.busy {
		// An idle transmitter with a non-empty queue is impossible, so
		// the packet goes straight to the wire. ECN marking only applies
		// to queued packets, matching a switch that marks on enqueue.
		p.transmit(pkt)
		return
	}
	if !p.queue.Enqueue(pkt) {
		p.net.ReleasePacket(pkt)
	}
}

// transmit starts serializing pkt: its transmit-done event carries it.
func (p *Pipe) transmit(pkt *Packet) {
	p.busy = true
	p.stats.SentPackets++
	p.stats.SentBytes += int64(pkt.Size)
	pkt.wire = p
	p.sched.AfterFIFO(&p.txLane, p.rate.TransmitTime(pkt.Size), pipeTxDone, unsafe.Pointer(pkt))
}

// onTxDone fires when the packet it carries finished serializing: put it
// on the wire (or hand it to a fault injector) and start on the next
// queued packet.
func (p *Pipe) onTxDone(pkt *Packet) {
	f := p.faults
	switch {
	case f != nil && f.down:
		// The link died while the packet was serializing.
		p.stats.FlapDrops++
		p.net.ReleasePacket(pkt)
	default:
		delay := p.delay
		if p.jitterRng != nil && p.maxJitter > 0 {
			delay += time.Duration(p.jitterRng.Int63n(int64(p.maxJitter) + 1))
		}
		at := p.sched.Now().Add(delay)
		if f != nil && f.reorderRng != nil && f.reorderRng.Float64() < f.reorderProb {
			// Held out of the FIFO: later packets may overtake it.
			p.deliverLate(pkt, at)
			break
		}
		if at < p.lastArrival {
			// Keep the wire FIFO: jitter may delay, never reorder.
			at = p.lastArrival
		}
		p.lastArrival = at
		if f != nil && f.dupRng != nil && f.dupRng.Float64() < f.dupProb {
			// The clone rides immediately behind the original at the same
			// instant (FIFO order still holds: equal times fire in push
			// order).
			p.stats.Duplicated++
			p.arrive(pkt, at)
			pkt = p.clonePacket(pkt)
		}
		p.arrive(pkt, at)
	}
	if next := p.queue.Dequeue(); next != nil {
		p.transmit(next)
		return
	}
	p.busy = false
}

// arrive puts pkt on the wire: one arrival event, carrying it, at at.
// The plain propagation delay takes a lane; jittered and clamped instants
// go to the wheel.
func (p *Pipe) arrive(pkt *Packet, at sim.Time) {
	pkt.wire = p
	if at == p.sched.Now().Add(p.delay) {
		p.sched.AfterFIFO(&p.arriveLane, p.delay, pipeDeliver, unsafe.Pointer(pkt))
		return
	}
	if _, err := p.sched.AtArg(at, pipeDeliver, unsafe.Pointer(pkt)); err != nil {
		panic("netsim: arrival scheduled in the past") // jitter and the FIFO clamp only ever delay
	}
}

// onDeliver hands the packet its event carries to the peer. A downed link
// blackholes packets on the wire at their arrival instant.
func (p *Pipe) onDeliver(pkt *Packet) {
	if f := p.faults; f != nil && f.down {
		p.stats.FlapDrops++
		p.net.ReleasePacket(pkt)
		return
	}
	p.to.Receive(pkt, p)
}
