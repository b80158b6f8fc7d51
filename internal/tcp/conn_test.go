package tcp

import (
	"testing"
	"time"

	"tcptrim/internal/netsim"
	"tcptrim/internal/sim"
)

// testNet is a two-host dumbbell: sender — switch — receiver, every link
// with the given config.
type testNet struct {
	sched    *sim.Scheduler
	net      *netsim.Network
	sender   *Stack
	receiver *Stack
	upQueue  *netsim.Queue // switch → receiver egress (the bottleneck)
}

func newTestNet(t *testing.T, link netsim.LinkConfig) *testNet {
	t.Helper()
	return newTestNetOn(t, sim.NewScheduler(), link)
}

// newTestNetOn is newTestNet on a given scheduler.
func newTestNetOn(t *testing.T, sched *sim.Scheduler, link netsim.LinkConfig) *testNet {
	t.Helper()
	net := netsim.NewNetwork(sched)
	hs := net.AddHost("sender")
	sw := net.AddSwitch("sw")
	hr := net.AddHost("receiver")
	net.Connect(hs, sw, link)
	up, _ := net.Connect(sw, hr, link)
	return &testNet{
		sched:    sched,
		net:      net,
		sender:   NewStack(net, hs),
		receiver: NewStack(net, hr),
		upQueue:  up.Queue(),
	}
}

// withHot equips a bare white-box Conn literal (no NewConn) with
// standalone hot state.
func (c *Conn) withHot() *Conn {
	c.hot = &connHot{}
	c.slot = -1
	return c
}

func gigLink(queueCap int) netsim.LinkConfig {
	return netsim.LinkConfig{
		Rate:  netsim.Gbps,
		Delay: 50 * time.Microsecond,
		Queue: netsim.QueueConfig{CapPackets: queueCap},
	}
}

func newTestConn(t *testing.T, tn *testNet, cfg Config) *Conn {
	t.Helper()
	cfg.Sender = tn.sender
	cfg.Receiver = tn.receiver
	if cfg.Flow == 0 {
		cfg.Flow = 1
	}
	c, err := NewConn(cfg)
	if err != nil {
		t.Fatalf("NewConn: %v", err)
	}
	return c
}

func TestTransferCompletes(t *testing.T) {
	tn := newTestNet(t, gigLink(100))
	c := newTestConn(t, tn, Config{})

	var result TrainResult
	completed := false
	c.SendTrain(100*DefaultMSS, func(r TrainResult) { result, completed = r, true })
	tn.sched.Run()

	if !completed {
		t.Fatal("train never completed")
	}
	if c.DeliveredBytes() != 100*DefaultMSS {
		t.Errorf("DeliveredBytes = %d, want %d", c.DeliveredBytes(), 100*DefaultMSS)
	}
	if result.Bytes != 100*DefaultMSS {
		t.Errorf("result.Bytes = %d", result.Bytes)
	}
	if got := c.Stats(); got.Timeouts != 0 || got.RetransSegs != 0 {
		t.Errorf("unexpected losses: %+v", got)
	}
	// 100 MSS at 1 Gbps through 2 hops with slow start from cwnd=2: well
	// under 10 ms.
	if ct := result.CompletionTime(); ct > 10*time.Millisecond || ct <= 0 {
		t.Errorf("completion time = %v", ct)
	}
}

func TestPartialTailSegment(t *testing.T) {
	tn := newTestNet(t, gigLink(100))
	c := newTestConn(t, tn, Config{})
	const size = 10*DefaultMSS + 123
	done := false
	c.SendTrain(size, func(TrainResult) { done = true })
	tn.sched.Run()
	if !done {
		t.Fatal("train with partial tail never completed")
	}
	if c.DeliveredBytes() != size {
		t.Errorf("DeliveredBytes = %d, want %d", c.DeliveredBytes(), size)
	}
}

func TestSlowStartDoubling(t *testing.T) {
	tn := newTestNet(t, gigLink(1000))
	c := newTestConn(t, tn, Config{})
	c.SendTrain(1000*DefaultMSS, nil)

	// After k RTTs of slow start, cwnd ≈ 2^(k+1). Base RTT: data path
	// 2×(12+50)µs plus ACK path 2×(0.32+50)µs ≈ 224µs.
	tn.sched.RunUntil(sim.At(3 * 224 * time.Microsecond))
	if c.Cwnd() < 8 || c.Cwnd() > 40 {
		t.Errorf("cwnd after ~3 RTT = %v, want ≈16", c.Cwnd())
	}
	got := c.Cwnd()
	tn.sched.RunUntil(sim.At(5 * 224 * time.Microsecond))
	if c.Cwnd() < 2*got {
		t.Errorf("cwnd stopped doubling: %v -> %v", got, c.Cwnd())
	}
}

func TestCongestionAvoidanceLinearGrowth(t *testing.T) {
	tn := newTestNet(t, gigLink(5000))
	c := newTestConn(t, tn, Config{})
	c.SetSsthresh(4) // force CA almost immediately
	c.SendTrain(4000*DefaultMSS, nil)
	tn.sched.RunUntil(sim.At(2 * time.Millisecond)) // ~16 RTTs
	// Linear growth: roughly +1 per RTT from 4 → ~20, far below the
	// >1000 slow start would reach.
	if c.Cwnd() < 6 || c.Cwnd() > 60 {
		t.Errorf("cwnd in CA = %v, want slow linear growth", c.Cwnd())
	}
}

func TestFastRetransmitRecoversSingleLoss(t *testing.T) {
	// Queue of 20 packets: slow start overshoot causes drops, recovered
	// by fast retransmit without any RTO (min RTO 200ms would dominate
	// the completion time otherwise).
	tn := newTestNet(t, gigLink(20))
	c := newTestConn(t, tn, Config{})
	done := false
	var result TrainResult
	c.SendTrain(500*DefaultMSS, func(r TrainResult) { result, done = r, true })
	tn.sched.Run()

	if !done {
		t.Fatal("transfer never completed")
	}
	st := c.Stats()
	if st.FastRecoveries == 0 {
		t.Error("expected at least one fast recovery")
	}
	if st.Timeouts != 0 {
		t.Errorf("Timeouts = %d, want 0 (fast retransmit should suffice)", st.Timeouts)
	}
	if ct := result.CompletionTime(); ct > 100*time.Millisecond {
		t.Errorf("completion time %v suggests an RTO fired", ct)
	}
	if c.DeliveredBytes() != 500*DefaultMSS {
		t.Errorf("DeliveredBytes = %d", c.DeliveredBytes())
	}
}

func TestTimeoutOnTotalLoss(t *testing.T) {
	// A 2-packet queue with a burst exactly the window size: the tail of
	// the burst is lost and nothing follows to generate dup ACKs, so
	// only the RTO can recover — the paper's Fig. 3(b) situation.
	tn := newTestNet(t, netsim.LinkConfig{
		Rate:  netsim.Gbps,
		Delay: 50 * time.Microsecond,
		Queue: netsim.QueueConfig{CapPackets: 2},
	})
	c := newTestConn(t, tn, Config{InitialCwnd: 64, MinRTO: 10 * time.Millisecond})
	done := false
	var result TrainResult
	c.SendTrain(64*DefaultMSS, func(r TrainResult) { result, done = r, true })
	tn.sched.RunUntil(sim.At(5 * time.Second))

	if !done {
		t.Fatal("transfer never completed despite RTO recovery")
	}
	if c.Stats().Timeouts == 0 {
		t.Error("expected RTO timeouts under tail loss")
	}
	if result.CompletionTime() < 10*time.Millisecond {
		t.Errorf("completion %v is faster than the RTO floor", result.CompletionTime())
	}
	if c.DeliveredBytes() != 64*DefaultMSS {
		t.Errorf("DeliveredBytes = %d", c.DeliveredBytes())
	}
}

func TestTrainsCompleteInOrder(t *testing.T) {
	tn := newTestNet(t, gigLink(100))
	c := newTestConn(t, tn, Config{})
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		c.SendTrain(10*DefaultMSS, func(TrainResult) { order = append(order, i) })
	}
	tn.sched.Run()
	if len(order) != 5 {
		t.Fatalf("completed %d trains, want 5", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("completion order %v", order)
		}
	}
}

func TestOnOffTrainsKeepWindow(t *testing.T) {
	// The paper's core observation: after an idle OFF period, Reno
	// restarts with the inherited (possibly huge) window.
	tn := newTestNet(t, gigLink(1000))
	c := newTestConn(t, tn, Config{})
	c.SendTrain(200*DefaultMSS, nil)
	tn.sched.RunUntil(sim.At(100 * time.Millisecond)) // train done, idle
	inherited := c.Cwnd()
	if inherited < 10 {
		t.Fatalf("cwnd after first train = %v, want growth", inherited)
	}
	c.SendTrain(10*DefaultMSS, nil)
	tn.sched.RunUntil(sim.At(200 * time.Millisecond))
	if c.Cwnd() < inherited {
		t.Errorf("Reno should inherit the window across OFF periods: %v -> %v",
			inherited, c.Cwnd())
	}
}

func TestRTTEstimate(t *testing.T) {
	tn := newTestNet(t, gigLink(100))
	c := newTestConn(t, tn, Config{})
	c.SendTrain(50*DefaultMSS, nil)
	tn.sched.Run()
	// Unloaded RTT: 2 hops × (12µs + 50µs) data + 2 hops × (0.32µs +
	// 50µs) ack ≈ 224µs; queueing adds some.
	if c.SRTT() < 200*time.Microsecond || c.SRTT() > 2*time.Millisecond {
		t.Errorf("SRTT = %v, want a few hundred µs", c.SRTT())
	}
}

func TestRTOHonorsFloor(t *testing.T) {
	tn := newTestNet(t, gigLink(100))
	c := newTestConn(t, tn, Config{MinRTO: 123 * time.Millisecond})
	c.SendTrain(10*DefaultMSS, nil)
	tn.sched.Run()
	if got := c.rto(); got != 123*time.Millisecond {
		t.Errorf("rto = %v, want the floor with µs-scale SRTT", got)
	}
}

func TestECNMarksEchoed(t *testing.T) {
	tn := newTestNet(t, netsim.LinkConfig{
		Rate:  netsim.Gbps,
		Delay: 50 * time.Microsecond,
		Queue: netsim.QueueConfig{CapPackets: 200, ECNThresholdPackets: 5},
	})
	c := newTestConn(t, tn, Config{ECN: true})
	c.SendTrain(500*DefaultMSS, nil)
	tn.sched.Run()
	if c.Stats().ECESeen == 0 {
		t.Error("no ECE seen despite marking threshold")
	}
}

func TestNonECNConnNeverSeesECE(t *testing.T) {
	tn := newTestNet(t, netsim.LinkConfig{
		Rate:  netsim.Gbps,
		Delay: 50 * time.Microsecond,
		Queue: netsim.QueueConfig{CapPackets: 200, ECNThresholdPackets: 5},
	})
	c := newTestConn(t, tn, Config{})
	c.SendTrain(500*DefaultMSS, nil)
	tn.sched.Run()
	if c.Stats().ECESeen != 0 {
		t.Error("non-ECN connection saw ECE")
	}
}

func TestTwoFlowsShareBottleneck(t *testing.T) {
	sched := sim.NewScheduler()
	net := netsim.NewNetwork(sched)
	link := gigLink(100)
	s1 := net.AddHost("s1")
	s2 := net.AddHost("s2")
	sw := net.AddSwitch("sw")
	fe := net.AddHost("fe")
	net.Connect(s1, sw, link)
	net.Connect(s2, sw, link)
	net.Connect(sw, fe, link)
	st1, st2, fes := NewStack(net, s1), NewStack(net, s2), NewStack(net, fe)

	c1, err := NewConn(Config{Sender: st1, Receiver: fes, Flow: 1, MinRTO: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	c2, err := NewConn(Config{Sender: st2, Receiver: fes, Flow: 2, MinRTO: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	const size = 3000 * DefaultMSS
	c1.SendTrain(size, nil)
	c2.SendTrain(size, nil)
	sched.RunUntil(sim.At(5 * time.Second))

	d1, d2 := c1.DeliveredBytes(), c2.DeliveredBytes()
	if d1 != size || d2 != size {
		t.Fatalf("incomplete: %d / %d of %d", d1, d2, size)
	}
	if fes.StrayPackets() != 0 {
		t.Errorf("stray packets at front end: %d", fes.StrayPackets())
	}
}

func TestZeroSizeTrainCompletesImmediately(t *testing.T) {
	tn := newTestNet(t, gigLink(100))
	c := newTestConn(t, tn, Config{})
	done := false
	c.SendTrain(0, func(r TrainResult) {
		done = true
		if r.CompletionTime() != 0 {
			t.Errorf("zero train completion time = %v", r.CompletionTime())
		}
	})
	if !done {
		t.Error("zero-size train should complete synchronously")
	}
}

func TestConfigValidation(t *testing.T) {
	tn := newTestNet(t, gigLink(100))
	if _, err := NewConn(Config{}); err == nil {
		t.Error("missing stacks should error")
	}
	if _, err := NewConn(Config{Sender: tn.sender, Receiver: tn.receiver, Flow: 9, MSS: -1}); err == nil {
		t.Error("negative MSS should error")
	}
	// Duplicate flow registration.
	if _, err := NewConn(Config{Sender: tn.sender, Receiver: tn.receiver, Flow: 10}); err != nil {
		t.Fatalf("first registration: %v", err)
	}
	if _, err := NewConn(Config{Sender: tn.sender, Receiver: tn.receiver, Flow: 10}); err == nil {
		t.Error("duplicate flow should error")
	}
}

func TestOutOfOrderReassembly(t *testing.T) {
	c := (&Conn{mss: DefaultMSS}).withHot()
	// Arrivals: [1460,2920), [4380,5840), [2920,4380) then in-order head.
	c.ooo = insertRange(c.ooo, interval{1460, 2920})
	c.ooo = insertRange(c.ooo, interval{4380, 5840})
	c.ooo = insertRange(c.ooo, interval{2920, 4380})
	if len(c.ooo) != 1 {
		t.Fatalf("intervals not merged: %v", c.ooo)
	}
	c.rcvNxt = 1460
	c.drainOutOfOrder()
	if c.rcvNxt != 5840 {
		t.Errorf("rcvNxt = %d, want 5840", c.rcvNxt)
	}
	if len(c.ooo) != 0 {
		t.Errorf("leftover intervals: %v", c.ooo)
	}
}

func TestOutOfOrderOverlapMerge(t *testing.T) {
	c := (&Conn{mss: DefaultMSS}).withHot()
	c.ooo = insertRange(c.ooo, interval{100, 200})
	c.ooo = insertRange(c.ooo, interval{150, 300})
	c.ooo = insertRange(c.ooo, interval{50, 120})
	if len(c.ooo) != 1 || c.ooo[0] != (interval{50, 300}) {
		t.Errorf("merge result: %v", c.ooo)
	}
}

func TestGoodputMatchesLinkCapacity(t *testing.T) {
	// A single long flow should fill ~1 Gbps minus header overhead.
	tn := newTestNet(t, gigLink(100))
	c := newTestConn(t, tn, Config{})
	c.SendTrain(100_000*DefaultMSS, nil)
	tn.sched.RunUntil(sim.At(1 * time.Second))
	gbps := float64(c.DeliveredBytes()) * 8 / 1e9
	// Payload efficiency is 1460/1500 ≈ 0.973.
	if gbps < 0.90 || gbps > 0.98 {
		t.Errorf("goodput = %.3f Gbps, want ≈0.95", gbps)
	}
}
