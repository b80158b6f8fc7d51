package core

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"tcptrim/internal/netsim"
	"tcptrim/internal/sim"
	"tcptrim/internal/tcp"
)

// fakeCtl is a scriptable tcp.Control for unit-testing the TRIM state
// machine without a network.
type fakeCtl struct {
	sched    *sim.Scheduler
	cwnd     float64
	ssthresh float64
	minCwnd  float64
	flight   int
	srtt     time.Duration
	susp     bool
	bonus    int
	gap      time.Duration
	hasSent  bool
	rate     netsim.Bitrate
	resumed  int
}

var _ tcp.Control = (*fakeCtl)(nil)

func newFakeCtl() *fakeCtl {
	return &fakeCtl{sched: sim.NewScheduler(), cwnd: 10, ssthresh: 1 << 30, minCwnd: 2}
}

func (f *fakeCtl) Now() sim.Time { return f.sched.Now() }
func (f *fakeCtl) After(d time.Duration, fn func()) sim.Timer {
	return f.sched.After(d, fn)
}
func (f *fakeCtl) Cwnd() float64 { return f.cwnd }
func (f *fakeCtl) SetCwnd(w float64) {
	if w < f.minCwnd {
		w = f.minCwnd
	}
	f.cwnd = w
}
func (f *fakeCtl) Ssthresh() float64                    { return f.ssthresh }
func (f *fakeCtl) SetSsthresh(w float64)                { f.ssthresh = w }
func (f *fakeCtl) MinCwnd() float64                     { return f.minCwnd }
func (f *fakeCtl) FlightSegs() int                      { return f.flight }
func (f *fakeCtl) SRTT() time.Duration                  { return f.srtt }
func (f *fakeCtl) SinceLastSend() (time.Duration, bool) { return f.gap, f.hasSent }
func (f *fakeCtl) Suspend()                             { f.susp = true }
func (f *fakeCtl) Resume()                              { f.susp = false; f.resumed++ }
func (f *fakeCtl) AllowBeyondWindow(n int) {
	if n < 0 {
		n = 0
	}
	f.bonus = n
}
func (f *fakeCtl) LinkRate() netsim.Bitrate { return f.rate }
func (f *fakeCtl) WirePacketSize() int      { return 1500 }

// seedRTT feeds one advancing ACK so smoothRTT/minRTT are initialized.
func seedRTT(tr *Trim, rtt time.Duration) {
	tr.OnAck(tcp.AckEvent{Ack: 1, AckedBytes: 1460, AckedSegs: 1, RTT: rtt})
}

func TestGuidelineKHandValues(t *testing.T) {
	// C = 83333 pkt/s (1 Gbps, 1500 B), D = 224 µs:
	// 2CD = 37.33, (√37.33−1)² / C ≈ 313 µs.
	k := GuidelineK(83333, 224*time.Microsecond)
	if k < 300*time.Microsecond || k > 330*time.Microsecond {
		t.Errorf("K = %v, want ≈313µs", k)
	}
}

func TestGuidelineKNeverBelowD(t *testing.T) {
	// Tiny capacity: the (√(2CD)−1)²/C term can dip below D; the floor
	// must win.
	d := time.Millisecond
	if k := GuidelineK(100, d); k < d {
		t.Errorf("K = %v < D = %v", k, d)
	}
	prop := func(c uint32, dus uint16) bool {
		cap := float64(c%1_000_000) + 1
		d := time.Duration(int(dus)+1) * time.Microsecond
		return GuidelineK(cap, d) >= d
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestGuidelineKMonotonicInD(t *testing.T) {
	const c = 83333.0
	prev := time.Duration(0)
	for d := 50 * time.Microsecond; d <= time.Millisecond; d += 50 * time.Microsecond {
		k := GuidelineK(c, d)
		if k < prev {
			t.Fatalf("K not monotone at D=%v: %v < %v", d, k, prev)
		}
		prev = k
	}
}

func TestGuidelineKDegenerateInputs(t *testing.T) {
	if k := GuidelineK(0, time.Millisecond); k != time.Millisecond {
		t.Errorf("zero capacity: K = %v", k)
	}
	if k := GuidelineK(1000, 0); k != 0 {
		t.Errorf("zero D: K = %v", k)
	}
}

func TestGuidelineKForLinkMatchesManual(t *testing.T) {
	want := GuidelineK(netsim.Gbps.PacketsPerSecond(1500), 224*time.Microsecond)
	got := GuidelineKForLink(netsim.Gbps, 1500, 224*time.Microsecond)
	if got != want {
		t.Errorf("wrapper %v != manual %v", got, want)
	}
}

func TestSmoothRTTUsesAlpha(t *testing.T) {
	ctl := newFakeCtl()
	tr := New(Config{})
	tr.Attach(ctl)
	seedRTT(tr, 100*time.Microsecond)
	if tr.SmoothRTT() != 100*time.Microsecond {
		t.Fatalf("first sample sets smoothRTT directly, got %v", tr.SmoothRTT())
	}
	seedRTT(tr, 200*time.Microsecond)
	// 0.75×100 + 0.25×200 = 125µs.
	if tr.SmoothRTT() != 125*time.Microsecond {
		t.Errorf("smoothRTT = %v, want 125µs", tr.SmoothRTT())
	}
}

func TestMinRTTOnlyDecreases(t *testing.T) {
	ctl := newFakeCtl()
	tr := New(Config{})
	tr.Attach(ctl)
	seedRTT(tr, 300*time.Microsecond)
	seedRTT(tr, 500*time.Microsecond)
	if tr.MinRTT() != 300*time.Microsecond {
		t.Errorf("minRTT = %v", tr.MinRTT())
	}
	seedRTT(tr, 200*time.Microsecond)
	if tr.MinRTT() != 200*time.Microsecond {
		t.Errorf("minRTT = %v after smaller sample", tr.MinRTT())
	}
}

func TestGapTriggersProbe(t *testing.T) {
	ctl := newFakeCtl()
	tr := New(Config{})
	tr.Attach(ctl)
	ctl.cwnd = 900 // the paper's Fig. 4(b) inherited window
	seedRTT(tr, 200*time.Microsecond)

	// Idle shorter than smoothRTT: no probe.
	ctl.hasSent = true
	ctl.gap = 100 * time.Microsecond
	tr.BeforeSend()
	if tr.Probing() {
		t.Fatal("short gap must not trigger probing")
	}

	// Idle longer than smoothRTT: probe.
	ctl.gap = 5 * time.Millisecond
	tr.BeforeSend()
	if !tr.Probing() {
		t.Fatal("long gap must trigger probing")
	}
	if ctl.cwnd != 2 {
		t.Errorf("probe cwnd = %v, want 2", ctl.cwnd)
	}
	if ctl.bonus != 2 {
		t.Errorf("bonus = %d, want 2", ctl.bonus)
	}

	// The two probes go out; the second suspends the sender.
	if !tr.OnSent(tcp.SendEvent{Seq: 0, EndSeq: 1460}) {
		t.Error("first packet should be tagged probe")
	}
	if ctl.susp {
		t.Error("suspended after a single probe")
	}
	if !tr.OnSent(tcp.SendEvent{Seq: 1460, EndSeq: 2920}) {
		t.Error("second packet should be tagged probe")
	}
	if !ctl.susp {
		t.Error("not suspended after both probes")
	}
	if tr.OnSent(tcp.SendEvent{Seq: 2920, EndSeq: 4380}) {
		t.Error("third packet must not be a probe")
	}
}

func TestNoProbeBeforeFirstSendOrRTT(t *testing.T) {
	ctl := newFakeCtl()
	tr := New(Config{})
	tr.Attach(ctl)
	tr.BeforeSend() // no RTT sample, never sent
	if tr.Probing() {
		t.Error("must not probe before any RTT sample")
	}
	seedRTT(tr, 200*time.Microsecond)
	ctl.hasSent = false
	tr.BeforeSend()
	if tr.Probing() {
		t.Error("must not probe before first transmission")
	}
}

func TestProbeAckTunesWindowPerEq1(t *testing.T) {
	ctl := newFakeCtl()
	tr := New(Config{})
	tr.Attach(ctl)
	seedRTT(tr, 200*time.Microsecond) // minRTT = 200µs
	ctl.cwnd = 100
	ctl.hasSent, ctl.gap = true, 5*time.Millisecond
	tr.BeforeSend()
	tr.OnSent(tcp.SendEvent{Seq: 0, EndSeq: 1460})
	tr.OnSent(tcp.SendEvent{Seq: 1460, EndSeq: 2920})

	// Probe RTTs average 250µs: factor = 1 − (250−200)/200 = 0.75 →
	// cwnd = 100 × 0.75 = 75.
	tr.OnAck(tcp.AckEvent{Ack: 1460, AckedSegs: 1, RTT: 240 * time.Microsecond})
	if !tr.Probing() {
		t.Fatal("one probe acked, still waiting for the second")
	}
	tr.OnAck(tcp.AckEvent{Ack: 2920, AckedSegs: 1, RTT: 260 * time.Microsecond})
	if tr.Probing() {
		t.Fatal("probe exchange should be resolved")
	}
	if math.Abs(ctl.cwnd-75) > 1e-9 {
		t.Errorf("tuned cwnd = %v, want 75", ctl.cwnd)
	}
	if ctl.susp {
		t.Error("sender still suspended after tuning")
	}
}

func TestProbeAckLargeRTTClampsToMinWindow(t *testing.T) {
	ctl := newFakeCtl()
	tr := New(Config{})
	tr.Attach(ctl)
	ctl.cwnd = 100
	seedRTT(tr, 200*time.Microsecond)
	ctl.hasSent, ctl.gap = true, 5*time.Millisecond
	tr.BeforeSend()
	tr.OnSent(tcp.SendEvent{Seq: 0, EndSeq: 1460})
	tr.OnSent(tcp.SendEvent{Seq: 1460, EndSeq: 2920})
	// probeRTT ≥ 2×minRTT → Eq. 1 non-positive → clamp to 2
	// (implementation issue 2 in Section III.C).
	tr.OnAck(tcp.AckEvent{Ack: 2920, AckedSegs: 2, RTT: 500 * time.Microsecond})
	if ctl.cwnd != 2 {
		t.Errorf("cwnd = %v, want clamp to 2", ctl.cwnd)
	}
}

func TestProbeDeadlineFallsBackToMinWindow(t *testing.T) {
	ctl := newFakeCtl()
	tr := New(Config{})
	tr.Attach(ctl)
	ctl.cwnd = 100
	seedRTT(tr, 200*time.Microsecond)
	ctl.hasSent, ctl.gap = true, 5*time.Millisecond
	tr.BeforeSend()
	tr.OnSent(tcp.SendEvent{Seq: 0, EndSeq: 1460})
	tr.OnSent(tcp.SendEvent{Seq: 1460, EndSeq: 2920})
	if !ctl.susp {
		t.Fatal("not suspended")
	}
	// No probe ACKs arrive; the deadline (one smoothed RTT) fires.
	ctl.sched.RunUntil(sim.At(time.Second))
	if tr.Probing() {
		t.Fatal("probe exchange should have timed out")
	}
	if ctl.cwnd != 2 {
		t.Errorf("cwnd = %v, want 2 after probe deadline", ctl.cwnd)
	}
	if ctl.susp {
		t.Error("sender must resume after probe deadline")
	}
}

func TestSingleSegmentTrainProbes(t *testing.T) {
	// Section III.C: a 1-packet train is still sent as a probe and the
	// regulation of Eq. 1 applies when its ACK returns.
	ctl := newFakeCtl()
	tr := New(Config{})
	tr.Attach(ctl)
	seedRTT(tr, 200*time.Microsecond)
	ctl.cwnd = 50
	ctl.hasSent, ctl.gap = true, 5*time.Millisecond
	tr.BeforeSend()
	if !tr.OnSent(tcp.SendEvent{Seq: 0, EndSeq: 1000}) {
		t.Fatal("single packet should be a probe")
	}
	// ACK covers the only probe sent: resolve with one sample.
	tr.OnAck(tcp.AckEvent{Ack: 1000, AckedSegs: 1, RTT: 220 * time.Microsecond})
	if tr.Probing() {
		t.Fatal("probe should resolve with a single outstanding probe")
	}
	// factor = 1 − (220−200)/200 = 0.9 → 45.
	if math.Abs(ctl.cwnd-45) > 1e-9 {
		t.Errorf("cwnd = %v, want 45", ctl.cwnd)
	}
}

func TestQueueControlCutsOncePerRTT(t *testing.T) {
	ctl := newFakeCtl()
	tr := New(Config{K: 300 * time.Microsecond})
	tr.Attach(ctl)
	ctl.cwnd = 100
	ctl.ssthresh = 1 // congestion avoidance: growth ≈ +1/cwnd per ACK
	seedRTT(tr, 200*time.Microsecond)

	// RTT = 400µs ≥ K: ep = (400−300)/400 = 0.25 → cwnd ×= 0.875.
	before := ctl.cwnd
	tr.OnAck(tcp.AckEvent{Ack: 100, AckedSegs: 1, RTT: 400 * time.Microsecond})
	if ctl.cwnd > before*0.88 || ctl.cwnd < before*0.87 {
		t.Errorf("cwnd = %v, want ≈ %v×0.875", ctl.cwnd, before)
	}
	if tr.QueueReductions() != 1 {
		t.Fatalf("reductions = %d", tr.QueueReductions())
	}

	// A second over-K ACK within the same smoothed RTT must not cut.
	tr.OnAck(tcp.AckEvent{Ack: 200, AckedSegs: 1, RTT: 400 * time.Microsecond})
	if tr.QueueReductions() != 1 {
		t.Errorf("second cut within one RTT: reductions = %d", tr.QueueReductions())
	}

	// After one smoothed RTT elapses, the next over-K ACK cuts again.
	ctl.sched.After(time.Millisecond, func() {})
	ctl.sched.Run()
	tr.OnAck(tcp.AckEvent{Ack: 300, AckedSegs: 1, RTT: 400 * time.Microsecond})
	if tr.QueueReductions() != 2 {
		t.Errorf("reductions after an RTT = %d, want 2", tr.QueueReductions())
	}
}

func TestQueueControlRespectsK(t *testing.T) {
	ctl := newFakeCtl()
	tr := New(Config{K: 300 * time.Microsecond})
	tr.Attach(ctl)
	ctl.cwnd = 100
	seedRTT(tr, 200*time.Microsecond)
	tr.OnAck(tcp.AckEvent{Ack: 100, AckedSegs: 1, RTT: 250 * time.Microsecond})
	if tr.QueueReductions() != 0 {
		t.Error("RTT below K must not cut the window")
	}
}

func TestKDerivedFromLinkRate(t *testing.T) {
	ctl := newFakeCtl()
	ctl.rate = netsim.Gbps
	tr := New(Config{})
	tr.Attach(ctl)
	seedRTT(tr, 224*time.Microsecond)
	want := GuidelineKForLink(netsim.Gbps, 1500, 224*time.Microsecond)
	if tr.K() != want {
		t.Errorf("K = %v, want %v", tr.K(), want)
	}
}

func TestKFallbackWithoutLinkRate(t *testing.T) {
	ctl := newFakeCtl()
	tr := New(Config{})
	tr.Attach(ctl)
	seedRTT(tr, 200*time.Microsecond)
	if tr.K() != 400*time.Microsecond {
		t.Errorf("fallback K = %v, want 2×minRTT", tr.K())
	}
}

func TestAblationDisableProbing(t *testing.T) {
	ctl := newFakeCtl()
	tr := New(Config{DisableProbing: true})
	tr.Attach(ctl)
	seedRTT(tr, 200*time.Microsecond)
	ctl.cwnd = 100
	ctl.hasSent, ctl.gap = true, 5*time.Millisecond
	tr.BeforeSend()
	if tr.Probing() {
		t.Error("probing disabled but triggered")
	}
	if ctl.cwnd != 100 {
		t.Errorf("cwnd touched: %v", ctl.cwnd)
	}
}

func TestAblationDisableQueueControl(t *testing.T) {
	ctl := newFakeCtl()
	tr := New(Config{K: 300 * time.Microsecond, DisableQueueControl: true})
	tr.Attach(ctl)
	ctl.cwnd = 100
	seedRTT(tr, 200*time.Microsecond)
	tr.OnAck(tcp.AckEvent{Ack: 100, AckedSegs: 1, RTT: 900 * time.Microsecond})
	if tr.QueueReductions() != 0 {
		t.Error("queue control disabled but cut anyway")
	}
}

func TestTimeoutAbandonsProbe(t *testing.T) {
	ctl := newFakeCtl()
	tr := New(Config{})
	tr.Attach(ctl)
	ctl.cwnd = 100
	seedRTT(tr, 200*time.Microsecond)
	ctl.hasSent, ctl.gap = true, 5*time.Millisecond
	tr.BeforeSend()
	tr.OnSent(tcp.SendEvent{Seq: 0, EndSeq: 1460})
	tr.OnSent(tcp.SendEvent{Seq: 1460, EndSeq: 2920})
	tr.OnTimeout()
	if tr.Probing() {
		t.Error("probe state must be cleared on RTO")
	}
	if ctl.susp {
		t.Error("sender must be resumed on RTO")
	}
}

func TestRetransmitNeverTaggedProbe(t *testing.T) {
	ctl := newFakeCtl()
	tr := New(Config{})
	tr.Attach(ctl)
	seedRTT(tr, 200*time.Microsecond)
	ctl.hasSent, ctl.gap = true, 5*time.Millisecond
	tr.BeforeSend()
	if tr.OnSent(tcp.SendEvent{Seq: 0, EndSeq: 1460, Retransmit: true}) {
		t.Error("retransmission tagged as probe")
	}
}

// --- Integration over a real network ------------------------------------

func TestTrimIntegrationAvoidsInheritedBurst(t *testing.T) {
	// ON/OFF workload over a shallow queue: Reno inherits a big window
	// and suffers timeouts; TRIM probes and completes cleanly. This is
	// the essence of the paper's Fig. 4 vs Fig. 6.
	run := func(mk func() tcp.CongestionControl) (timeouts int, cwndBeforeLPT float64, done bool) {
		sched := sim.NewScheduler()
		net := netsim.NewNetwork(sched)
		link := netsim.LinkConfig{
			Rate:  netsim.Gbps,
			Delay: 50 * time.Microsecond,
			Queue: netsim.QueueConfig{CapPackets: 40},
		}
		hs := net.AddHost("s")
		sw := net.AddSwitch("sw")
		hr := net.AddHost("r")
		net.Connect(hs, sw, link)
		net.Connect(sw, hr, link)
		conn, err := tcp.NewConn(tcp.Config{
			Sender:   tcp.NewStack(net, hs),
			Receiver: tcp.NewStack(net, hr),
			Flow:     1,
			CC:       mk(),
			LinkRate: netsim.Gbps,
			MinRTO:   10 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		// 300 small responses, 1 ms apart: grows cwnd far beyond the
		// 40-packet queue without ever congesting.
		for i := 0; i < 300; i++ {
			at := sim.At(time.Duration(i) * time.Millisecond)
			if _, err := sched.At(at, func() { conn.SendTrain(4*tcp.DefaultMSS, nil) }); err != nil {
				t.Fatal(err)
			}
		}
		// Then one long train after an idle gap.
		if _, err := sched.At(sim.At(400*time.Millisecond), func() {
			cwndBeforeLPT = conn.Cwnd()
			conn.SendTrain(300*tcp.DefaultMSS, func(tcp.TrainResult) { done = true })
		}); err != nil {
			t.Fatal(err)
		}
		sched.RunUntil(sim.At(3 * time.Second))
		return conn.Stats().Timeouts, cwndBeforeLPT, done
	}

	renoTO, renoCwnd, renoDone := run(func() tcp.CongestionControl { return tcp.NewReno() })
	trimTO, trimCwnd, trimDone := run(func() tcp.CongestionControl { return New(Config{}) })

	if !renoDone || !trimDone {
		t.Fatalf("transfers incomplete: reno=%v trim=%v", renoDone, trimDone)
	}
	if renoCwnd < 100 {
		t.Errorf("Reno inherited cwnd = %v, expected large accumulated window", renoCwnd)
	}
	if renoTO == 0 {
		t.Errorf("Reno should suffer timeouts from the inherited burst (cwnd=%v)", renoCwnd)
	}
	if trimTO != 0 {
		t.Errorf("TRIM suffered %d timeouts, want 0", trimTO)
	}
	_ = trimCwnd
}

func TestTrimProbeRoundsCounted(t *testing.T) {
	ctl := newFakeCtl()
	tr := New(Config{})
	tr.Attach(ctl)
	seedRTT(tr, 200*time.Microsecond)
	ctl.hasSent, ctl.gap = true, 5*time.Millisecond
	tr.BeforeSend()
	if tr.ProbeRounds() != 1 {
		t.Errorf("ProbeRounds = %d", tr.ProbeRounds())
	}
	// Re-entry while probing must not start another round.
	tr.BeforeSend()
	if tr.ProbeRounds() != 1 {
		t.Errorf("ProbeRounds after re-entry = %d", tr.ProbeRounds())
	}
}

// TestProbeRoundAllocatesNothing: a whole probe exchange — gap, two
// probes, their two ACKs, the Eq. 1 window — allocates nothing once the
// policy has run one.
func TestProbeRoundAllocatesNothing(t *testing.T) {
	ctl := newFakeCtl()
	tr := New(Config{})
	tr.Attach(ctl)
	seedRTT(tr, 200*time.Microsecond)
	ctl.hasSent, ctl.gap = true, 5*time.Millisecond
	var seq int64
	round := func() {
		ctl.sched.RunUntil(ctl.Now().Add(ctl.gap)) // the idle gap since the last exchange
		tr.BeforeSend()
		tr.OnSent(tcp.SendEvent{Seq: seq, EndSeq: seq + 1460})
		tr.OnSent(tcp.SendEvent{Seq: seq + 1460, EndSeq: seq + 2920})
		tr.OnAck(tcp.AckEvent{Ack: seq + 1460, AckedSegs: 1, RTT: 240 * time.Microsecond})
		tr.OnAck(tcp.AckEvent{Ack: seq + 2920, AckedSegs: 1, RTT: 260 * time.Microsecond})
		seq += 2920
	}
	round()
	rounds := tr.ProbeRounds()
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Errorf("a probe round allocates %v objects, want 0", allocs)
	}
	if tr.Probing() || tr.ProbeRounds() != rounds+101 {
		t.Errorf("rounds did not complete: probing=%v, %d rounds", tr.Probing(), tr.ProbeRounds()-rounds)
	}
}
