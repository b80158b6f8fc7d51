package tcp

// Recovery-policy behavior: the Karn back-off fix, RACK-TLP's probe-led
// repair of tail loss, T-RACKs switch-assisted recovery, and a safety
// property sweep that runs every policy through the fault matrix with
// the simulator's invariant checks armed (the sendSegment invariant
// rejects any targeted repair beyond the highest sequence sent or below
// the cumulative ACK, so a policy emitting a bogus repair panics).

import (
	"fmt"
	"testing"
	"time"

	"tcptrim/internal/netsim"
	"tcptrim/internal/sim"
)

// switchFaultNet is a sender — switch — receiver dumbbell with direct
// access to every pipe, for fault injection on a topology that can also
// host a T-RACKs agent, on a scheduler with invariant checks armed.
type switchFaultNet struct {
	sched    *sim.Scheduler
	net      *netsim.Network
	sw       *netsim.Switch
	sender   *Stack
	receiver *Stack
	// up/down are the data-direction pipes (sender→switch→receiver);
	// revUp/revDown carry the ACK stream back.
	up, down       *netsim.Pipe
	revDown, revUp *netsim.Pipe
}

func newSwitchFaultNet(t *testing.T, link netsim.LinkConfig) *switchFaultNet {
	t.Helper()
	sched := armed()
	net := netsim.NewNetwork(sched)
	hs := net.AddHost("sender")
	sw := net.AddSwitch("sw")
	hr := net.AddHost("receiver")
	up, revUp := net.Connect(hs, sw, link)
	down, revDown := net.Connect(sw, hr, link)
	return &switchFaultNet{
		sched:    sched,
		net:      net,
		sw:       sw,
		sender:   NewStack(net, hs),
		receiver: NewStack(net, hr),
		up:       up,
		down:     down,
		revDown:  revDown,
		revUp:    revUp,
	}
}

func (sn *switchFaultNet) asTestNet() *testNet {
	return &testNet{sched: sn.sched, net: sn.net, sender: sn.sender, receiver: sn.receiver}
}

func (sn *switchFaultNet) at(t *testing.T, at time.Duration, f func()) {
	t.Helper()
	if _, err := sn.sched.At(sim.At(at), f); err != nil {
		t.Fatalf("schedule at %v: %v", at, err)
	}
}

// TestKarnBackoffIgnoresPreRTOEcho is the regression test for the Karn
// fix: an ACK whose echoed timestamp predates the last RTO proves only
// that a pre-timeout transmission survived, so it must NOT reset the
// exponential back-off; an ACK echoing a post-RTO timestamp must.
func TestKarnBackoffIgnoresPreRTOEcho(t *testing.T) {
	const (
		minRTO       = 10 * time.Millisecond
		maxRTO       = 160 * time.Millisecond
		blackoutFrom = 100 * time.Millisecond
		probeAt      = 500 * time.Millisecond
	)
	fn := newFaultNet(t, gigLink(100))
	c := newTestConn(t, fn.asTestNet(), Config{MinRTO: minRTO, MaxRTO: maxRTO})

	// Warm the estimator, then black out the link and offer a train so
	// the RTO backs off repeatedly.
	c.SendTrain(20*DefaultMSS, nil)
	fn.at(t, blackoutFrom, func() {
		fn.setLinkDown(true)
		c.SendTrain(50*DefaultMSS, nil)
	})

	// Mid-blackout, deliver two hand-crafted advancing ACKs straight to
	// the sender (the wire is down; this is the spurious-ACK shape a
	// delayed original would produce). The first echoes a pre-RTO
	// timestamp and must leave the back-off untouched; the second echoes
	// the last RTO instant itself and must reset it.
	fn.at(t, probeAt, func() {
		before := c.backoff
		if before == 0 {
			t.Fatalf("backoff = 0 mid-blackout, scenario never backed off")
		}
		if c.lastRTOAt == 0 {
			t.Fatal("lastRTOAt never recorded")
		}
		c.handleAck(&netsim.Packet{
			IsAck: true,
			Ack:   c.hot.sndUna + DefaultMSS,
			Echo:  c.lastRTOAt.Add(-time.Microsecond),
		})
		if c.backoff != before {
			t.Errorf("pre-RTO echo changed backoff: %d -> %d (Karn violation)", before, c.backoff)
		}
		c.handleAck(&netsim.Packet{
			IsAck: true,
			Ack:   c.hot.sndUna + DefaultMSS,
			Echo:  c.lastRTOAt,
		})
		if c.backoff != 0 {
			t.Errorf("post-RTO echo left backoff = %d, want 0", c.backoff)
		}
	})

	// The synthetic ACKs desynchronize sender and receiver on purpose;
	// stop at a horizon instead of draining the transfer.
	fn.sched.RunUntil(sim.At(600 * time.Millisecond))
	fn.net.CheckInvariants()
}

// TestRACKTLPRepairsTailLossWithoutRTO blacks out the data path for the
// entirety of a short train (the no-dup-ACK regime: nothing arrives, so
// dup-ACK recovery has no signal at all). RACK-TLP's probe timer fires
// well under the RTO, the probe's echo gives delivery evidence, and the
// time-based detector repairs the rest — no timeout. Classic recovery on
// the identical scenario can only wait for the RTO backstop.
func TestRACKTLPRepairsTailLossWithoutRTO(t *testing.T) {
	const (
		minRTO  = 10 * time.Millisecond
		quietAt = 50 * time.Millisecond
		restore = 250 * time.Microsecond // < the ~2·SRTT probe timeout
	)
	run := func(t *testing.T, recovery RecoveryPolicy) (*Conn, TrainResult) {
		fn := newFaultNet(t, gigLink(100))
		c := newTestConn(t, fn.asTestNet(), Config{
			MinRTO:   minRTO,
			SACK:     true,
			Recovery: recovery,
		})
		c.SendTrain(20*DefaultMSS, nil) // warm RTT estimator and cwnd
		var result TrainResult
		fn.at(t, quietAt, func() {
			fn.fwd.SetLinkDown(true) // data direction only; ACK path stays up
			c.SendTrain(4*DefaultMSS, func(r TrainResult) { result = r })
		})
		fn.at(t, quietAt+restore, func() { fn.fwd.SetLinkDown(false) })
		fn.sched.RunUntil(sim.At(time.Second))
		fn.net.CheckInvariants()
		if result.Bytes == 0 {
			t.Fatalf("%s: train never completed", recovery.Name())
		}
		if lp := fn.net.LivePackets(); lp != 0 {
			t.Errorf("%s: %d pooled packets leaked", recovery.Name(), lp)
		}
		return c, result
	}

	rackConn, rackRes := run(t, NewRACKTLP())
	classicConn, classicRes := run(t, NewClassicRecovery())

	rackStats, classicStats := rackConn.Stats(), classicConn.Stats()
	if rackStats.TLPProbes == 0 {
		t.Error("RACK-TLP never sent a tail-loss probe")
	}
	if rackStats.Timeouts != 0 {
		t.Errorf("RACK-TLP took %d RTO timeouts, want probe-led recovery", rackStats.Timeouts)
	}
	if classicStats.Timeouts == 0 {
		t.Error("classic recovered the blackout without an RTO — scenario no longer RTO-bound")
	}
	rackT, classicT := rackRes.CompletionTime(), classicRes.CompletionTime()
	if rackT >= minRTO {
		t.Errorf("RACK-TLP completion %v not under the %v RTO floor", rackT, minRTO)
	}
	if rackT*2 >= classicT {
		t.Errorf("RACK-TLP (%v) not decisively faster than classic (%v)", rackT, classicT)
	}
}

// TestTRACKsSwitchAssistedRecovery drops the tail of a train on the
// switch→receiver pipe under the stock 200 ms MinRTO. With no packets
// after the loss there are no dup ACKs, so classic stalls a full RTO;
// the T-RACKs agent notices the stalled ACK stream within its ~1 ms
// timeout and signals the sender into fast recovery.
func TestTRACKsSwitchAssistedRecovery(t *testing.T) {
	const (
		start    = 50 * time.Millisecond
		downFrom = start + 100*time.Microsecond
		downTo   = start + 800*time.Microsecond
	)
	run := func(t *testing.T, recovery RecoveryPolicy, withAgent bool) (*Conn, TrainResult, *netsim.TRACKsAgent) {
		sn := newSwitchFaultNet(t, gigLink(100))
		var agent *netsim.TRACKsAgent
		if withAgent {
			var err error
			agent, err = netsim.AttachTRACKs(sn.net, sn.sw, netsim.TRACKsConfig{})
			if err != nil {
				t.Fatalf("AttachTRACKs: %v", err)
			}
		}
		c := newTestConn(t, sn.asTestNet(), Config{SACK: true, Recovery: recovery})
		c.SendTrain(20*DefaultMSS, nil) // warm: grow cwnd past the drop window
		var result TrainResult
		sn.at(t, start, func() { c.SendTrain(50*DefaultMSS, func(r TrainResult) { result = r }) })
		sn.at(t, downFrom, func() { sn.down.SetLinkDown(true) })
		sn.at(t, downTo, func() { sn.down.SetLinkDown(false) })
		// The agent's scan timer never drains; run to a horizon.
		sn.sched.RunUntil(sim.At(2 * time.Second))
		sn.net.CheckInvariants()
		if result.Bytes == 0 {
			t.Fatalf("%s: train never completed", recovery.Name())
		}
		return c, result, agent
	}

	tracksConn, tracksRes, agent := run(t, NewTRACKs(), true)
	classicConn, classicRes, _ := run(t, NewClassicRecovery(), false)

	if agent.Signals() == 0 {
		t.Fatal("agent never injected a recovery signal")
	}
	if agent.TrackedFlows() != 1 {
		t.Errorf("agent tracks %d flows, want 1", agent.TrackedFlows())
	}
	tracksStats := tracksConn.Stats()
	if tracksStats.RecoverySignals == 0 {
		t.Error("sender never consumed a recovery signal")
	}
	if tracksStats.Timeouts != 0 {
		t.Errorf("T-RACKs took %d RTO timeouts, want signal-led recovery", tracksStats.Timeouts)
	}
	if got := classicConn.Stats().Timeouts; got == 0 {
		t.Error("classic recovered without an RTO — scenario no longer RTO-bound")
	}
	tracksT, classicT := tracksRes.CompletionTime(), classicRes.CompletionTime()
	if tracksT*5 >= classicT {
		t.Errorf("T-RACKs (%v) not decisively faster than classic (%v)", tracksT, classicT)
	}
}

// TestRecoveryPoliciesSafeUnderFaults is the cross-policy safety sweep:
// every policy, over several fault seeds, must complete a transfer
// through bursty loss + reordering + duplication on a shallow-buffered
// switch path without tripping the armed invariants — in particular the
// sendSegment check that forbids a targeted repair from retransmitting
// beyond the highest sequence sent or re-sending cumulatively
// acknowledged data — and must keep the retransmission breakdown
// consistent.
func TestRecoveryPoliciesSafeUnderFaults(t *testing.T) {
	for _, name := range RecoveryNames() {
		for _, seed := range []int64{1, 7, 42} {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				sn := newSwitchFaultNet(t, gigLink(16))
				if name == "tracks" {
					if _, err := netsim.AttachTRACKs(sn.net, sn.sw, netsim.TRACKsConfig{}); err != nil {
						t.Fatalf("AttachTRACKs: %v", err)
					}
				}
				rec, err := NewRecoveryPolicy(name)
				if err != nil {
					t.Fatal(err)
				}
				c := newTestConn(t, sn.asTestNet(), Config{
					MinRTO:   10 * time.Millisecond,
					SACK:     true,
					Recovery: rec,
				})
				// Faults on the data bottleneck for a fixed window.
				sn.at(t, time.Millisecond, func() {
					sn.down.InjectGilbertElliott(netsim.GEConfig{
						PGoodBad: 0.02, PBadGood: 0.05, LossBad: 0.7,
					}, sim.NewRand(seed))
					sn.down.InjectReorder(0.1, 500*time.Microsecond, sim.NewRand(seed+1))
					sn.down.InjectDuplicate(0.05, sim.NewRand(seed+2))
				})
				sn.at(t, 100*time.Millisecond, func() {
					sn.down.InjectGilbertElliott(netsim.GEConfig{}, nil)
					sn.down.InjectReorder(0, 0, nil)
					sn.down.InjectDuplicate(0, nil)
				})
				done := false
				c.SendTrain(400*DefaultMSS, func(TrainResult) { done = true })
				sn.sched.RunUntil(sim.At(10 * time.Second))
				sn.net.CheckInvariants()

				if !done {
					t.Fatal("train never completed after faults cleared")
				}
				if got := c.DeliveredBytes(); got != 400*DefaultMSS {
					t.Errorf("DeliveredBytes = %d, want %d", got, 400*DefaultMSS)
				}
				st := c.Stats()
				if sum := st.RTORetransSegs + st.FastRetransSegs + st.TLPProbes; sum != st.RetransSegs {
					t.Errorf("retransmission breakdown %d+%d+%d = %d, want RetransSegs %d",
						st.RTORetransSegs, st.FastRetransSegs, st.TLPProbes, sum, st.RetransSegs)
				}
			})
		}
	}
}
