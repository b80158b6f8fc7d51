package netsim

// T-RACKs switch agent (arXiv 2102.07477): a shim at the access switch
// that watches the ACK stream of every flow it forwards. A flow with
// data outstanding whose cumulative ACK has not advanced for a timeout —
// a handful of RTTs, orders of magnitude below the end-host RTO floor —
// gets a recovery signal: an ACK-shaped packet flagged RecoverySignal,
// injected toward the sender through the normal pipes (so it shares
// their fate under fault injection). The tcp TRACKs recovery policy turns
// a valid signal into a fast retransmit.

import (
	"fmt"
	"time"

	"tcptrim/internal/sim"
)

// Default T-RACKs agent parameters: the stagnation timeout is a few
// data-center RTTs (the paper sizes it near the datacenter RTO floor it
// replaces), scanned at a quarter of that period.
const (
	DefaultTRACKsTimeout = time.Millisecond
	DefaultTRACKsPeriod  = 250 * time.Microsecond
)

// TRACKsConfig parameterizes a switch agent. Zero fields take defaults.
type TRACKsConfig struct {
	// Timeout is the ACK-stagnation threshold: a flow with data
	// outstanding and no cumulative-ACK advance for this long is
	// signalled. Signals per flow are rate-limited to one per Timeout.
	Timeout time.Duration
	// Period is the scan interval (default Timeout/4).
	Period time.Duration
}

func (c TRACKsConfig) withDefaults() TRACKsConfig {
	if c.Timeout <= 0 {
		c.Timeout = DefaultTRACKsTimeout
	}
	if c.Period <= 0 {
		c.Period = c.Timeout / 4
	}
	return c
}

// trackFlow is the agent's per-flow state. The paper's hardware sizing
// argument (a handful of bytes per flow in switch SRAM) is mirrored
// here: highest data byte seen, last ACK seen, and two timestamps.
type trackFlow struct {
	flow         FlowID
	sender       NodeID
	highEnd      int64 // highest data end-sequence forwarded
	lastAck      int64 // highest cumulative ACK forwarded
	lastProgress sim.Time
	lastSignal   sim.Time
	signalled    bool
}

// TRACKsAgent is one switch's shim. Flows are scanned in first-seen order
// so signal emission is deterministic.
type TRACKsAgent struct {
	net   *Network
	sw    *Switch
	cfg   TRACKsConfig
	sched *sim.Scheduler

	flows map[FlowID]int // index into order
	order []trackFlow

	timer   sim.Timer
	tickFn  func()
	signals int
	nextID  uint64
}

// AttachTRACKs installs a T-RACKs agent on sw: a packet tap plus a
// periodic scan. Attach before running; the scan ticks until the run's
// horizon, so drive the simulation with RunUntil, not Run.
func AttachTRACKs(n *Network, sw *Switch, cfg TRACKsConfig) (*TRACKsAgent, error) {
	if sw == nil {
		return nil, fmt.Errorf("netsim: T-RACKs agent needs a switch")
	}
	a := &TRACKsAgent{
		net:   n,
		sw:    sw,
		cfg:   cfg.withDefaults(),
		sched: n.sched,
		flows: make(map[FlowID]int),
	}
	a.tickFn = a.tick
	sw.SetTap(a.observe)
	a.timer = a.sched.After(a.cfg.Period, a.tickFn)
	return a, nil
}

// Signals returns the number of recovery signals the agent has injected.
func (a *TRACKsAgent) Signals() int { return a.signals }

// TrackedFlows returns the number of flows the agent holds state for.
func (a *TRACKsAgent) TrackedFlows() int { return len(a.order) }

// observe is the switch tap: per-flow bookkeeping only, no packet
// mutation or retention.
func (a *TRACKsAgent) observe(pkt *Packet) {
	if pkt.RecoverySignal {
		return // never track our own injections
	}
	if pkt.IsAck {
		i, ok := a.flows[pkt.Flow]
		if !ok {
			return
		}
		f := &a.order[i]
		if pkt.Ack > f.lastAck {
			f.lastAck = pkt.Ack
			f.lastProgress = a.sched.Now()
		}
		return
	}
	if pkt.Payload == 0 {
		return
	}
	end := pkt.Seq + int64(pkt.Payload)
	i, ok := a.flows[pkt.Flow]
	if !ok {
		i = len(a.order)
		a.order = append(a.order, trackFlow{flow: pkt.Flow})
		a.flows[pkt.Flow] = i
	}
	f := &a.order[i]
	f.sender = pkt.Src
	if f.highEnd <= f.lastAck {
		// Idle → active transition: the stagnation clock starts when new
		// data first goes unacknowledged, not at the flow's creation.
		f.lastProgress = a.sched.Now()
	}
	if end > f.highEnd {
		f.highEnd = end
	}
}

// tick scans the flow table and signals stagnant flows, then re-arms.
func (a *TRACKsAgent) tick() {
	now := a.sched.Now()
	for i := range a.order {
		f := &a.order[i]
		if f.highEnd <= f.lastAck {
			continue // nothing outstanding
		}
		if now.Sub(f.lastProgress) < a.cfg.Timeout {
			continue
		}
		if f.signalled && now.Sub(f.lastSignal) < a.cfg.Timeout {
			continue // rate limit: one signal per timeout per flow
		}
		f.lastSignal = now
		f.signalled = true
		a.signals++
		a.inject(f, now)
	}
	if !a.timer.Reset(a.cfg.Period) {
		a.timer = a.sched.After(a.cfg.Period, a.tickFn)
	}
}

// inject crafts the recovery signal and forwards it from the switch
// toward the flow's sender over the normal egress pipes.
func (a *TRACKsAgent) inject(f *trackFlow, now sim.Time) {
	pkt := a.net.AllocPacket()
	a.nextID++
	// Bits 31:30 = 0b11 keep agent IDs disjoint from both endpoint
	// counters (sender data: bit31=0, receiver ACKs: bit31=1, bit30=0).
	pkt.ID = uint64(f.flow)<<32 | 0b11<<30 | a.nextID
	pkt.Flow = f.flow
	pkt.Src = a.sw.id
	pkt.Dst = f.sender
	pkt.Size = AckSize
	pkt.IsAck = true
	pkt.RecoverySignal = true
	pkt.Ack = f.lastAck
	pkt.SentAt = now
	pkt.Echo = now
	a.net.forward(a.sw.id, pkt)
}
