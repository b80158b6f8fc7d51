package tcp

import (
	"testing"
	"time"

	"tcptrim/internal/netsim"
	"tcptrim/internal/sim"
)

// lossyNet builds sender—switch—receiver with loss injected on the
// switch→receiver pipe.
func lossyNet(t *testing.T, lossRate float64, seed int64, sack bool) (*sim.Scheduler, *Conn, *netsim.Pipe) {
	t.Helper()
	sched := sim.NewScheduler()
	net := netsim.NewNetwork(sched)
	a := net.AddHost("a")
	sw := net.AddSwitch("sw")
	b := net.AddHost("b")
	link := netsim.LinkConfig{
		Rate:  netsim.Gbps,
		Delay: 50 * time.Microsecond,
		Queue: netsim.QueueConfig{CapPackets: 1000},
	}
	net.Connect(a, sw, link)
	fwd, _ := net.Connect(sw, b, link)
	fwd.InjectLoss(lossRate, sim.NewRand(seed))
	c, err := NewConn(Config{
		Sender:   NewStack(net, a),
		Receiver: NewStack(net, b),
		Flow:     1,
		SACK:     sack,
		MinRTO:   10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sched, c, fwd
}

func TestSACKTransferCompletesUnderLoss(t *testing.T) {
	sched, c, fwd := lossyNet(t, 0.02, 11, true)
	done := false
	c.SendTrain(3000*DefaultMSS, func(TrainResult) { done = true })
	sched.RunUntil(sim.At(30 * time.Second))
	if !done {
		t.Fatal("SACK transfer never completed under 2% loss")
	}
	if fwd.Stats().LossDrops == 0 {
		t.Fatal("no loss was injected")
	}
	if c.DeliveredBytes() != 3000*DefaultMSS {
		t.Errorf("DeliveredBytes = %d", c.DeliveredBytes())
	}
}

func TestSACKBeatsNewRenoUnderHeavyLoss(t *testing.T) {
	// SACK's payoff regime is multi-loss windows: NewReno repairs one
	// hole per partial-ACK round trip and falls back to timeouts, while
	// the scoreboard repairs several holes per RTT. Under 8% random loss
	// SACK must complete substantially faster with fewer timeouts and
	// fewer retransmissions. (At light loss the two are comparable —
	// NewReno's partial-ACK crawl is short.)
	run := func(sack bool) (Stats, time.Duration) {
		sched, c, _ := lossyNet(t, 0.08, 11, sack)
		done := false
		var ct time.Duration
		c.SendTrain(3000*DefaultMSS, func(r TrainResult) { done, ct = true, r.CompletionTime() })
		sched.RunUntil(sim.At(60 * time.Second))
		if !done {
			t.Fatalf("transfer (sack=%v) never completed", sack)
		}
		return c.Stats(), ct
	}
	plain, plainCT := run(false)
	sacked, sackedCT := run(true)
	if sacked.Timeouts >= plain.Timeouts {
		t.Errorf("SACK timeouts %d not below NewReno %d", sacked.Timeouts, plain.Timeouts)
	}
	if sacked.RetransSegs >= plain.RetransSegs {
		t.Errorf("SACK retransmits %d not below NewReno %d",
			sacked.RetransSegs, plain.RetransSegs)
	}
	if sackedCT >= plainCT {
		t.Errorf("SACK completion %v not below NewReno %v", sackedCT, plainCT)
	}
}

func TestSACKScoreboardMergeAndTrim(t *testing.T) {
	c := (&Conn{mss: 1460, cfg: Config{SACK: true}}).withHot()
	c.mergeSack([]netsim.SackBlock{{Start: 2920, End: 4380}})
	c.mergeSack([]netsim.SackBlock{{Start: 5840, End: 7300}})
	c.mergeSack([]netsim.SackBlock{{Start: 4380, End: 5840}}) // bridges the two
	if len(c.sacked) != 1 || c.sacked[0] != (interval{2920, 7300}) {
		t.Fatalf("scoreboard = %v", c.sacked)
	}
	if c.sackedBytes() != 7300-2920 {
		t.Errorf("sackedBytes = %d", c.sackedBytes())
	}
	c.trimSackBelow(4000)
	if len(c.sacked) != 1 || c.sacked[0] != (interval{4000, 7300}) {
		t.Errorf("after trim: %v", c.sacked)
	}
	c.trimSackBelow(9999)
	if len(c.sacked) != 0 {
		t.Errorf("after full trim: %v", c.sacked)
	}
}

func TestSACKIgnoresStaleBlocks(t *testing.T) {
	c := (&Conn{mss: 1460, cfg: Config{SACK: true}}).withHot()
	c.hot.sndUna = 5000
	c.mergeSack([]netsim.SackBlock{
		{Start: 1000, End: 2000}, // entirely below una
		{Start: 4000, End: 6000}, // straddles una
		{Start: 9000, End: 9000}, // empty
		{Start: 9000, End: 8000}, // inverted
	})
	if len(c.sacked) != 1 || c.sacked[0] != (interval{5000, 6000}) {
		t.Errorf("scoreboard = %v", c.sacked)
	}
}

func TestSACKNextHoleSelection(t *testing.T) {
	c := (&Conn{mss: 1460, cfg: Config{SACK: true}}).withHot()
	c.hot.sndUna = 0
	c.hot.sndNxt = 10 * 1460
	c.hot.maxSent = 10 * 1460
	c.mergeSack([]netsim.SackBlock{
		{Start: 1460, End: 2920},
		{Start: 4380, End: 5840},
		{Start: 7300, End: 10220},
	})

	// First hole: [0, 1460) — clipped by the first SACK block, and lost
	// under the IsLost rule (≥3 MSS of SACKed data above it).
	seq, end := c.nextHole()
	if seq != 0 || end != 1460 {
		t.Fatalf("hole 1 = [%d, %d)", seq, end)
	}
	c.rtxHint = end
	// Next hole skips the first SACKed block: [2920, 4380) with exactly
	// 3 MSS SACKed above.
	seq, end = c.nextHole()
	if seq != 2920 || end != 4380 {
		t.Fatalf("hole 2 = [%d, %d)", seq, end)
	}
	c.rtxHint = end
	// The gap at [5840, 7300) has only 2 MSS SACKed above: not yet
	// lost, so no hole is reported (the data may simply be in flight).
	seq, end = c.nextHole()
	if end > seq {
		t.Fatalf("hole 3 = [%d, %d), want none under IsLost", seq, end)
	}
}

func TestSACKFlightExcludesScoreboard(t *testing.T) {
	c := (&Conn{mss: 1460, cfg: Config{SACK: true}}).withHot()
	c.hot.sndUna, c.hot.sndNxt = 0, 10*1460
	if c.FlightSegs() != 10 {
		t.Fatalf("flight = %d", c.FlightSegs())
	}
	c.mergeSack([]netsim.SackBlock{{Start: 1460, End: 4 * 1460}})
	if c.FlightSegs() != 7 {
		t.Errorf("flight = %d after SACKing 3 segments, want 7", c.FlightSegs())
	}
}

func TestSACKReceiverReportsBlocks(t *testing.T) {
	// Drop one mid-window packet and capture the dup ACKs' SACK blocks
	// at the sender side via a tap.
	sched := sim.NewScheduler()
	net := netsim.NewNetwork(sched)
	a := net.AddHost("a")
	sw := net.AddSwitch("sw")
	b := net.AddHost("b")
	link := netsim.LinkConfig{
		Rate:  netsim.Gbps,
		Delay: 50 * time.Microsecond,
		Queue: netsim.QueueConfig{CapPackets: 1000},
	}
	net.Connect(a, sw, link)
	fwd, _ := net.Connect(sw, b, link)
	c, err := NewConn(Config{
		Sender:   NewStack(net, a),
		Receiver: NewStack(net, b),
		Flow:     1,
		SACK:     true,
		MinRTO:   10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Use a one-shot "lose exactly the 5th data packet" rule via a
	// counting tap on the forward pipe: loss injection is random, so
	// instead drop deterministically by injecting 100% loss just for
	// that packet using the pipe's rng hook is awkward — approximate by
	// 30% loss with a fixed seed and assert SACK blocks were observed.
	fwd.InjectLoss(0.3, sim.NewRand(5))
	sawSack := false
	a.SetTap(func(p *netsim.Packet) {
		if p.IsAck && len(p.Sack) > 0 {
			sawSack = true
			for _, blk := range p.Sack {
				if blk.End <= blk.Start {
					t.Errorf("malformed SACK block %+v", blk)
				}
			}
		}
	})
	c.SendTrain(200*DefaultMSS, nil)
	sched.RunUntil(sim.At(5 * time.Second))
	if !sawSack {
		t.Error("no SACK blocks observed despite loss")
	}
}

// TestSackBlocksGrowOnce: an ACK on a packet with no block storage sizes
// it once, at MaxSackBlocks, and a recycled packet's storage is reused
// without allocating.
func TestSackBlocksGrowOnce(t *testing.T) {
	_, c, _ := lossyNet(t, 0, 1, true)
	c.ooo = []interval{{10, 20}, {30, 40}, {50, 60}, {70, 80}}
	c.lastTouched = c.ooo[1]
	if allocs := testing.AllocsPerRun(100, func() { c.appendSackBlocks(nil) }); allocs != 1 {
		t.Errorf("blocks for a fresh packet: %v allocations, want 1", allocs)
	}
	blocks := c.appendSackBlocks(nil)
	if len(blocks) != netsim.MaxSackBlocks || blocks[0] != (netsim.SackBlock{Start: 30, End: 40}) {
		t.Fatalf("blocks = %v, want %d led by the last-touched range", blocks, netsim.MaxSackBlocks)
	}
	if allocs := testing.AllocsPerRun(100, func() { blocks = c.appendSackBlocks(blocks[:0]) }); allocs != 0 {
		t.Errorf("blocks for a recycled packet: %v allocations, want 0", allocs)
	}
}
