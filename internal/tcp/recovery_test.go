package tcp

// Loss-recovery robustness under injected faults: RTO back-off through a
// full link blackout, and dup-ACK tolerance of packet duplication and
// reordering (the netsim fault layer's failure modes).

import (
	"testing"
	"time"

	"tcptrim/internal/netsim"
	"tcptrim/internal/sim"
)

// faultNet is a two-host network with direct access to both pipe
// directions so tests can flap or fault them, on a scheduler with
// invariant checks armed.
type faultNet struct {
	sched    *sim.Scheduler
	net      *netsim.Network
	sender   *Stack
	receiver *Stack
	fwd, rev *netsim.Pipe
}

func newFaultNet(t *testing.T, link netsim.LinkConfig) *faultNet {
	t.Helper()
	sched := armed()
	net := netsim.NewNetwork(sched)
	hs := net.AddHost("sender")
	hr := net.AddHost("receiver")
	fwd, rev := net.Connect(hs, hr, link)
	return &faultNet{
		sched:    sched,
		net:      net,
		sender:   NewStack(net, hs),
		receiver: NewStack(net, hr),
		fwd:      fwd,
		rev:      rev,
	}
}

func (fn *faultNet) setLinkDown(down bool) {
	fn.fwd.SetLinkDown(down)
	fn.rev.SetLinkDown(down)
}

func (fn *faultNet) at(t *testing.T, at time.Duration, f func()) {
	t.Helper()
	if _, err := fn.sched.At(sim.At(at), f); err != nil {
		t.Fatalf("schedule at %v: %v", at, err)
	}
}

// TestRTOBackoffCapsThroughBlackout blackouts the link until rto() pins at
// MaxRTO, then restores it and checks that the connection recovers: the
// back-off counter saturates at maxBackoffShift during the outage, resets
// on the first advancing ACK, and the RTT estimator re-converges to the
// path's real RTT.
func TestRTOBackoffCapsThroughBlackout(t *testing.T) {
	const (
		minRTO       = 10 * time.Millisecond
		maxRTO       = 160 * time.Millisecond
		blackoutFrom = 100 * time.Millisecond
		blackoutTo   = 2 * time.Second
	)
	fn := newFaultNet(t, gigLink(100))
	c := newTestConn(t, fn.asTestNet(), Config{MinRTO: minRTO, MaxRTO: maxRTO})

	// Warm the estimator with a clean transfer.
	warm := false
	c.SendTrain(20*DefaultMSS, func(TrainResult) { warm = true })

	// Blackout, then offer a train into the dead link.
	fn.at(t, blackoutFrom, func() {
		fn.setLinkDown(true)
		c.SendTrain(50*DefaultMSS, nil)
	})

	// Just before restore: back-off must sit exactly at the saturation
	// shift and the timeout must be pinned to MaxRTO.
	fn.at(t, blackoutTo-time.Millisecond, func() {
		if c.backoff != maxBackoffShift {
			t.Errorf("backoff during blackout = %d, want saturated at %d", c.backoff, maxBackoffShift)
		}
		if got := c.rto(); got != maxRTO {
			t.Errorf("rto() during blackout = %v, want pinned at MaxRTO %v", got, maxRTO)
		}
	})
	fn.at(t, blackoutTo, func() { fn.setLinkDown(false) })

	fn.sched.Run()
	fn.net.CheckInvariants()

	if !warm {
		t.Fatal("warm-up train never completed")
	}
	stats := c.Stats()
	if stats.Timeouts < int(maxBackoffShift) {
		t.Errorf("timeouts = %d, want at least %d (one per back-off doubling)", stats.Timeouts, maxBackoffShift)
	}
	if c.Pending() != 0 {
		t.Fatalf("%d bytes still unacknowledged after restore", c.Pending())
	}
	if c.backoff != 0 {
		t.Errorf("backoff after recovery = %d, want 0", c.backoff)
	}

	// Feed the estimator fresh post-restore samples and check it settles
	// near the real path RTT (~a few hundred µs on this link), far below
	// the blackout-era MaxRTO regime.
	done := false
	c.SendTrain(40*DefaultMSS, func(TrainResult) { done = true })
	fn.sched.Run()
	if !done {
		t.Fatal("post-restore train never completed")
	}
	if c.hot.srtt <= 0 || c.hot.srtt > 5*time.Millisecond {
		t.Errorf("srtt after recovery = %v, want re-converged under 5ms", c.hot.srtt)
	}
	if got := c.rto(); got != minRTO {
		t.Errorf("rto() after recovery = %v, want back at the %v floor", got, minRTO)
	}
	if fn.net.LivePackets() != 0 {
		t.Errorf("%d pooled packets leaked", fn.net.LivePackets())
	}
}

// asTestNet adapts faultNet to the newTestConn helper.
func (fn *faultNet) asTestNet() *testNet {
	return &testNet{sched: fn.sched, net: fn.net, sender: fn.sender, receiver: fn.receiver}
}

// TestInjectedDuplicationNoSpuriousFastRetransmit duplicates every data
// packet and every ACK on the wire. With SACK enabled, the duplicates
// carry no new scoreboard information, so the sender must not count them
// as loss signals: no fast recoveries, no retransmissions.
func TestInjectedDuplicationNoSpuriousFastRetransmit(t *testing.T) {
	fn := newFaultNet(t, gigLink(200))
	fn.fwd.InjectDuplicate(1, sim.NewRand(11))
	fn.rev.InjectDuplicate(1, sim.NewRand(12))
	c := newTestConn(t, fn.asTestNet(), Config{SACK: true})

	done := false
	c.SendTrain(100*DefaultMSS, func(TrainResult) { done = true })
	fn.sched.Run()
	fn.net.CheckInvariants()

	if !done {
		t.Fatal("train never completed under duplication")
	}
	stats := c.Stats()
	if stats.FastRecoveries != 0 {
		t.Errorf("duplication alone triggered %d fast recoveries", stats.FastRecoveries)
	}
	if stats.RetransSegs != 0 {
		t.Errorf("duplication alone triggered %d retransmissions", stats.RetransSegs)
	}
	if stats.Timeouts != 0 {
		t.Errorf("duplication alone triggered %d timeouts", stats.Timeouts)
	}
	if got := fn.fwd.Stats().Duplicated; got == 0 {
		t.Error("data pipe never duplicated a packet")
	}
	if fn.net.LivePackets() != 0 {
		t.Errorf("%d pooled packets leaked", fn.net.LivePackets())
	}
}

// TestInjectedReorderingDelivers runs a transfer through a pipe that
// reorders a third of its packets and checks the connection still delivers
// everything without timeouts (fast retransmits are legal RFC behavior
// under deep reordering; stalls are not).
func TestInjectedReorderingDelivers(t *testing.T) {
	fn := newFaultNet(t, gigLink(200))
	fn.fwd.InjectReorder(0.3, 100*time.Microsecond, sim.NewRand(7))
	c := newTestConn(t, fn.asTestNet(), Config{})

	done := false
	c.SendTrain(200*DefaultMSS, func(TrainResult) { done = true })
	fn.sched.Run()
	fn.net.CheckInvariants()

	if !done {
		t.Fatal("train never completed under reordering")
	}
	if got := c.DeliveredBytes(); got != 200*DefaultMSS {
		t.Errorf("DeliveredBytes = %d, want %d", got, 200*DefaultMSS)
	}
	if got := c.Stats().Timeouts; got != 0 {
		t.Errorf("reordering caused %d timeouts", got)
	}
	if got := fn.fwd.Stats().Reordered; got == 0 {
		t.Error("pipe never reordered a packet")
	}
	if fn.net.LivePackets() != 0 {
		t.Errorf("%d pooled packets leaked", fn.net.LivePackets())
	}
}
