package tcp

// White-box tests of connection internals: the RTO estimator, the
// back-off schedule, the window-control surface, and reassembly
// invariants under randomized input.

import (
	"sort"
	"testing"
	"testing/quick"
	"time"

	"tcptrim/internal/netsim"
	"tcptrim/internal/sim"
)

func TestRTOEstimatorFirstSample(t *testing.T) {
	c := (&Conn{cfg: Config{MinRTO: time.Millisecond, MaxRTO: time.Second}}).withHot()
	c.updateRTOEstimator(400 * time.Microsecond)
	if c.hot.srtt != 400*time.Microsecond {
		t.Errorf("srtt = %v", c.hot.srtt)
	}
	if c.hot.rttvar != 200*time.Microsecond {
		t.Errorf("rttvar = %v", c.hot.rttvar)
	}
	// rto = srtt + 4×rttvar = 1.2ms, above the 1ms floor.
	if got := c.rto(); got != 1200*time.Microsecond {
		t.Errorf("rto = %v", got)
	}
}

func TestRTOEstimatorConvergesOnSteadyRTT(t *testing.T) {
	c := (&Conn{cfg: Config{MinRTO: time.Microsecond, MaxRTO: time.Second}}).withHot()
	for i := 0; i < 100; i++ {
		c.updateRTOEstimator(300 * time.Microsecond)
	}
	if c.hot.srtt < 295*time.Microsecond || c.hot.srtt > 305*time.Microsecond {
		t.Errorf("srtt = %v, want ≈300µs", c.hot.srtt)
	}
	// Variance decays toward zero on a constant signal.
	if c.hot.rttvar > 20*time.Microsecond {
		t.Errorf("rttvar = %v, want near 0", c.hot.rttvar)
	}
}

func TestRTOBackoffDoublesAndCaps(t *testing.T) {
	c := (&Conn{cfg: Config{MinRTO: 10 * time.Millisecond, MaxRTO: 100 * time.Millisecond}}).withHot()
	base := c.rto()
	if base != 10*time.Millisecond {
		t.Fatalf("base rto = %v", base)
	}
	c.backoff = 1
	if got := c.rto(); got != 20*time.Millisecond {
		t.Errorf("backoff 1: rto = %v", got)
	}
	c.backoff = 3
	if got := c.rto(); got != 80*time.Millisecond {
		t.Errorf("backoff 3: rto = %v", got)
	}
	c.backoff = 4
	if got := c.rto(); got != 100*time.Millisecond {
		t.Errorf("backoff 4: rto = %v, want MaxRTO cap", got)
	}
	c.backoff = 100
	if got := c.rto(); got != 100*time.Millisecond {
		t.Errorf("backoff 100: rto = %v, want shift clamp + cap", got)
	}
}

func TestSetCwndClamps(t *testing.T) {
	c := (&Conn{minCwnd: 2}).withHot()
	c.SetCwnd(0.5)
	if c.Cwnd() != 2 {
		t.Errorf("cwnd = %v, want floor 2", c.Cwnd())
	}
	c.SetCwnd(1e18)
	if c.Cwnd() > float64(maxSegmentsLimit) {
		t.Errorf("cwnd = %v, want ceiling", c.Cwnd())
	}
	c.SetSsthresh(1)
	if c.Ssthresh() != 2 {
		t.Errorf("ssthresh = %v, want floor", c.Ssthresh())
	}
}

func TestFlightSegsRounding(t *testing.T) {
	c := (&Conn{mss: 1460}).withHot()
	c.hot.sndUna, c.hot.sndNxt = 0, 0
	if c.FlightSegs() != 0 {
		t.Error("empty flight")
	}
	c.hot.sndNxt = 1
	if c.FlightSegs() != 1 {
		t.Error("1 byte should count as 1 segment")
	}
	c.hot.sndNxt = 1460
	if c.FlightSegs() != 1 {
		t.Error("exactly one MSS = 1 segment")
	}
	c.hot.sndNxt = 1461
	if c.FlightSegs() != 2 {
		t.Error("one MSS + 1 byte = 2 segments")
	}
}

func TestAllowBeyondWindowSetsNotAccumulates(t *testing.T) {
	c := (&Conn{minCwnd: 2}).withHot()
	c.AllowBeyondWindow(2)
	c.AllowBeyondWindow(2)
	if c.bonus != 2 {
		t.Errorf("bonus = %d, want set semantics", c.bonus)
	}
	c.AllowBeyondWindow(0)
	if c.bonus != 0 {
		t.Errorf("bonus = %d after revoke", c.bonus)
	}
	c.AllowBeyondWindow(-5)
	if c.bonus != 0 {
		t.Errorf("bonus = %d after negative", c.bonus)
	}
}

func TestSinceLastSend(t *testing.T) {
	tn := newTestNet(t, gigLink(100))
	c := newTestConn(t, tn, Config{})
	if _, sent := c.SinceLastSend(); sent {
		t.Error("fresh connection reports a last send")
	}
	c.SendTrain(DefaultMSS, nil)
	tn.sched.RunUntil(sim.At(5 * time.Millisecond))
	gap, sent := c.SinceLastSend()
	if !sent {
		t.Fatal("no last send recorded")
	}
	if gap < 4*time.Millisecond || gap > 5*time.Millisecond {
		t.Errorf("gap = %v, want ≈5ms", gap)
	}
}

func TestSuspendResumeGateSending(t *testing.T) {
	tn := newTestNet(t, gigLink(100))
	c := newTestConn(t, tn, Config{})
	c.Suspend()
	c.SendTrain(10*DefaultMSS, nil)
	tn.sched.RunUntil(sim.At(10 * time.Millisecond))
	if c.Stats().SentSegs != 0 {
		t.Fatalf("suspended conn sent %d segments", c.Stats().SentSegs)
	}
	c.Resume()
	tn.sched.Run()
	if c.DeliveredBytes() != 10*DefaultMSS {
		t.Errorf("DeliveredBytes = %d after resume", c.DeliveredBytes())
	}
}

// TestReassemblyProperty feeds random segment permutations with overlaps
// to the receiver and requires rcvNxt to land exactly at the stream end
// with no leftover intervals.
func TestReassemblyProperty(t *testing.T) {
	prop := func(order []uint8, overlap bool) bool {
		const segs = 12
		c := (&Conn{mss: 1460}).withHot()
		// Build segment list [i*1460, (i+1)*1460), shuffled by order.
		idx := make([]int, segs)
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool {
			oa, ob := uint8(0), uint8(0)
			if a < len(order) {
				oa = order[a]
			}
			if b < len(order) {
				ob = order[b]
			}
			return oa < ob
		})
		for _, i := range idx {
			start, end := int64(i)*1460, int64(i+1)*1460
			if overlap && i%3 == 0 && start > 0 {
				start -= 100 // overlapping retransmission
			}
			iv := interval{start, end}
			if iv.start <= c.rcvNxt && iv.end > c.rcvNxt {
				c.rcvNxt = iv.end
				c.drainOutOfOrder()
			} else if iv.start > c.rcvNxt {
				c.ooo = insertRange(c.ooo, iv)
			}
		}
		return c.rcvNxt == segs*1460 && len(c.ooo) == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestByteConservationProperty runs random train workloads end to end and
// checks sender/receiver byte accounting.
func TestByteConservationProperty(t *testing.T) {
	prop := func(sizes []uint16, queueCap8 uint8) bool {
		queueCap := int(queueCap8%60) + 5
		tn := newTestNet(t, gigLink(queueCap))
		c := newTestConn(t, tn, Config{MinRTO: 5 * time.Millisecond})
		var total int64
		completed := 0
		scheduled := 0
		for i, s16 := range sizes {
			if i >= 8 {
				break
			}
			size := int(s16)%50000 + 1
			total += int64(size)
			scheduled++
			at := sim.At(time.Duration(i) * 3 * time.Millisecond)
			if _, err := tn.sched.At(at, func() {
				c.SendTrain(size, func(TrainResult) { completed++ })
			}); err != nil {
				return false
			}
		}
		tn.sched.RunUntil(sim.At(20 * time.Second))
		return completed == scheduled &&
			c.DeliveredBytes() == total &&
			c.Stats().AckedBytes == total
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestTrainResultFields(t *testing.T) {
	r := TrainResult{
		Released:  sim.At(time.Millisecond),
		Completed: sim.At(3 * time.Millisecond),
		Bytes:     999,
	}
	if r.CompletionTime() != 2*time.Millisecond {
		t.Errorf("CompletionTime = %v", r.CompletionTime())
	}
}

func TestStackStrayPackets(t *testing.T) {
	tn := newTestNet(t, gigLink(100))
	// No connection registered for flow 42: data to the receiver host is
	// stray.
	host := tn.sender.Host()
	peer := tn.receiver.Host()
	tn.sched.After(0, func() {
		host.Send(&netsim.Packet{
			Flow: 42, Src: host.ID(), Dst: peer.ID(),
			Size: 1500, Payload: 1460,
		})
	})
	tn.sched.Run()
	if tn.receiver.StrayPackets() != 1 {
		t.Errorf("stray = %d, want 1", tn.receiver.StrayPackets())
	}
}
