package netsim

// Fault injection. The paper's experiments only ever stress the stack with
// congestion (tail drops) and, in the extension experiments, independent
// Bernoulli loss and FIFO-preserving jitter. Real data-center failures are
// correlated: optics degrade in bursts, links flap, and LAG/ECMP rehashing
// reorders or duplicates packets. This file adds a composable per-pipe
// fault layer for those behaviors so the resilience experiments can open
// that scenario space. Every injector is opt-in, costs nothing when
// disabled, and keeps its own PipeStats counters so injected faults are
// never conflated with congestion drops (QueueStats.Dropped).
//
// Ownership discipline: a faulted packet always has exactly one owner.
// Drops release the packet to the network pool at the drop point;
// duplication clones through the pool (the clone is a distinct packet, so
// original and copy are released independently); reordering hands the
// packet to a held-back arrival event, which carries it like any other
// (see invariant.go).

import (
	"fmt"
	"math/rand"
	"time"
	"unsafe"

	"tcptrim/internal/sim"
)

// GEConfig parameterizes the Gilbert–Elliott two-state bursty-loss model.
// The channel is in a good or a bad state; each offered packet is dropped
// with the state's loss probability, and afterwards the state transitions
// with the configured per-packet probabilities. Mean burst length is
// 1/PBadGood packets; stationary loss rate is
// LossGood·P(good) + LossBad·P(bad) with
// P(bad) = PGoodBad/(PGoodBad+PBadGood).
type GEConfig struct {
	// PGoodBad is the per-packet probability of entering the bad state.
	PGoodBad float64
	// PBadGood is the per-packet probability of leaving the bad state.
	PBadGood float64
	// LossGood is the drop probability while in the good state (usually 0).
	LossGood float64
	// LossBad is the drop probability while in the bad state.
	LossBad float64
}

// Enabled reports whether the configuration can ever drop a packet.
func (c GEConfig) Enabled() bool {
	return c.LossGood > 0 || (c.PGoodBad > 0 && c.LossBad > 0)
}

// geState is the per-pipe Gilbert–Elliott channel state.
type geState struct {
	cfg GEConfig
	rng *rand.Rand
	bad bool
}

// drop decides the fate of one offered packet and advances the channel.
func (g *geState) drop() bool {
	loss := g.cfg.LossGood
	if g.bad {
		loss = g.cfg.LossBad
	}
	dropped := loss > 0 && g.rng.Float64() < loss
	if g.bad {
		if g.cfg.PBadGood > 0 && g.rng.Float64() < g.cfg.PBadGood {
			g.bad = false
		}
	} else if g.cfg.PGoodBad > 0 && g.rng.Float64() < g.cfg.PGoodBad {
		g.bad = true
	}
	return dropped
}

// pipeFaults bundles a pipe's active fault injectors. The pointer is nil
// until the first injector is configured, so un-faulted pipes pay one nil
// check on the hot path.
type pipeFaults struct {
	ge *geState

	// down marks the link dead: offered packets, the packet mid-
	// serialization, queued packets, and in-flight packets are all
	// blackholed (released to the pool and counted as FlapDrops).
	down bool

	reorderProb  float64
	reorderExtra time.Duration
	reorderRng   *rand.Rand

	dupProb float64
	dupRng  *rand.Rand

	// Flap schedule state: one persistent timer per pipe drives every
	// down/up edge (flapTick is bound once, so the timer re-slots in
	// place via Reset instead of chaining fresh closures), and a new
	// ScheduleFlaps replaces a still-pending schedule outright.
	flapTimer     sim.Timer
	flapTick      func()
	flapDownFor   time.Duration
	flapUpFor     time.Duration
	flapRemaining int
	flapNextDown  bool
}

func (p *Pipe) faultState() *pipeFaults {
	if p.faults == nil {
		p.faults = &pipeFaults{}
	}
	return p.faults
}

// InjectGilbertElliott enables bursty loss on this pipe direction. A nil
// rng or a configuration that can never drop disables the model (and
// resets its state).
func (p *Pipe) InjectGilbertElliott(cfg GEConfig, rng *rand.Rand) {
	f := p.faultState()
	if rng == nil || !cfg.Enabled() {
		f.ge = nil
		return
	}
	f.ge = &geState{cfg: cfg, rng: rng}
}

// InjectReorder makes each packet, with the given probability, bypass the
// FIFO wire and arrive after a uniform extra delay in (0, maxExtra] — so
// up to a bounded window of later packets overtake it. A nil rng or
// non-positive probability disables injection.
func (p *Pipe) InjectReorder(prob float64, maxExtra time.Duration, rng *rand.Rand) {
	f := p.faultState()
	if rng == nil || prob <= 0 {
		f.reorderProb, f.reorderRng = 0, nil
		return
	}
	if prob > 1 {
		prob = 1
	}
	if maxExtra <= 0 {
		maxExtra = time.Microsecond
	}
	f.reorderProb, f.reorderExtra, f.reorderRng = prob, maxExtra, rng
}

// InjectDuplicate makes each transmitted packet, with the given
// probability, arrive twice: the original plus a pool-allocated clone
// delivered immediately after it. A nil rng or non-positive probability
// disables injection.
func (p *Pipe) InjectDuplicate(prob float64, rng *rand.Rand) {
	f := p.faultState()
	if rng == nil || prob <= 0 {
		f.dupProb, f.dupRng = 0, nil
		return
	}
	if prob > 1 {
		prob = 1
	}
	f.dupProb, f.dupRng = prob, rng
}

// Down reports whether the link is currently flapped down.
func (p *Pipe) Down() bool { return p.faults != nil && p.faults.down }

// SetLinkDown flaps the link down or back up. Taking the link down drains
// the egress queue into the pool (counted as FlapDrops); packets already
// serializing or on the wire are blackholed when their transmit/arrival
// events fire while the link is still down.
func (p *Pipe) SetLinkDown(down bool) {
	f := p.faultState()
	if f.down == down {
		return
	}
	f.down = down
	if !down {
		return
	}
	// DrainOne bypasses the discipline's dequeue verdicts: the blackholed
	// backlog is the fault layer's doing and must land in FlapDrops, not
	// in the AQM's head-drop counters.
	for {
		pkt := p.queue.DrainOne()
		if pkt == nil {
			return
		}
		p.stats.FlapDrops++
		p.net.ReleasePacket(pkt)
	}
}

// FlapConfig schedules periodic link outages on a pipe.
type FlapConfig struct {
	// FirstDownAt is the instant of the first down edge.
	FirstDownAt sim.Time
	// DownFor is the outage length; must be positive.
	DownFor time.Duration
	// UpFor is the healthy interval between consecutive outages; must be
	// positive when Count > 1.
	UpFor time.Duration
	// Count is the number of outages; 0 means one.
	Count int
}

// ScheduleFlaps arms cfg.Count down/up cycles starting at cfg.FirstDownAt.
// The last up edge restores the link for good. A pipe carries at most one
// flap schedule: scheduling again while an edge is still pending re-slots
// the pipe's flap timer to the new first edge and adopts the new
// configuration, rather than layering a second chain on top of the first.
func (p *Pipe) ScheduleFlaps(cfg FlapConfig) error {
	if cfg.DownFor <= 0 {
		return fmt.Errorf("netsim: flap DownFor must be positive, got %v", cfg.DownFor)
	}
	count := cfg.Count
	if count <= 0 {
		count = 1
	}
	if count > 1 && cfg.UpFor <= 0 {
		return fmt.Errorf("netsim: flap UpFor must be positive for %d flaps", count)
	}
	if cfg.FirstDownAt < p.sched.Now() {
		return sim.ErrPastEvent
	}
	f := p.faultState()
	if f.flapTick == nil {
		f.flapTick = p.flapEdge
	}
	f.flapDownFor, f.flapUpFor = cfg.DownFor, cfg.UpFor
	f.flapRemaining = count
	f.flapNextDown = true
	if f.flapTimer.Reset(cfg.FirstDownAt.Sub(p.sched.Now())) {
		return nil
	}
	tm, err := p.sched.At(cfg.FirstDownAt, f.flapTick)
	if err != nil {
		return err
	}
	f.flapTimer = tm
	return nil
}

// flapEdge drives the flap schedule: alternate down and up edges until
// the configured cycle count is exhausted.
func (p *Pipe) flapEdge() {
	f := p.faults
	if f.flapNextDown {
		f.flapNextDown = false
		p.SetLinkDown(true)
		p.armFlapEdge(f.flapDownFor)
		return
	}
	p.SetLinkDown(false)
	f.flapRemaining--
	f.flapNextDown = true
	if f.flapRemaining > 0 {
		p.armFlapEdge(f.flapUpFor)
	}
}

// armFlapEdge schedules the next flap edge, re-slotting the persistent
// timer when it is still pending (a replaced schedule) and falling back
// to a fresh event otherwise (the common case: the timer just fired).
func (p *Pipe) armFlapEdge(d time.Duration) {
	f := p.faults
	if !f.flapTimer.Reset(d) {
		f.flapTimer = p.sched.After(d, f.flapTick)
	}
}

// clonePacket duplicates pkt for injection. The clone comes from the
// network pool, so original and clone have independent lifetimes and a
// release of one can never free the other.
func (p *Pipe) clonePacket(pkt *Packet) *Packet {
	c := p.net.AllocPacket()
	sack := c.Sack[:0]
	*c = *pkt
	c.pooled, c.inPool = true, false
	c.Sack = append(sack, pkt.Sack...)
	return c
}

// deliverLate delivers pkt outside the FIFO wire: it arrives extra time
// after its nominal arrival instant at, without advancing the FIFO's
// lastArrival clamp, so packets serialized later may overtake it. Its
// arrival event is an ordinary one, carrying it: if the link flaps down
// while the packet is held, it is blackholed on delivery.
func (p *Pipe) deliverLate(pkt *Packet, at sim.Time) {
	f := p.faults
	extra := time.Duration(1 + f.reorderRng.Int63n(int64(f.reorderExtra)))
	p.stats.Reordered++
	pkt.wire = p
	if _, err := p.sched.AtArg(at.Add(extra), pipeDeliver, unsafe.Pointer(pkt)); err != nil {
		panic("netsim: held arrival scheduled in the past") // at is never in the past
	}
}
