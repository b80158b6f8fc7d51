package conformance

import (
	"testing"
	"time"

	"tcptrim/internal/core"
	"tcptrim/internal/netsim"
	"tcptrim/internal/sim"
	"tcptrim/internal/tcp"
)

// harness is a scripted stand-in for the sending connection: it
// implements tcp.Control with the sender's exact clamp semantics and
// drives the Shadow through arbitrary hook sequences — including ones a
// real network run would rarely reach (partial probe coverage,
// timeouts mid-exchange, RTT-less ACKs) — without a simulator topology.
type harness struct {
	t     *testing.T
	sched *sim.Scheduler
	sh    *Shadow

	cwnd      float64
	ssthresh  float64
	minCwnd   float64
	flight    int
	sndUna    int64
	sndNxt    int64
	suspended bool
	bonus     int
	hasSent   bool
	lastSend  sim.Time
	rate      netsim.Bitrate
}

var _ tcp.Control = (*harness)(nil)

const harnessMSS = 1460

func newHarness(t *testing.T, cfg core.Config) *harness {
	h := &harness{
		t:        t,
		sched:    sim.NewScheduler(),
		cwnd:     10,
		ssthresh: 1 << 30,
		minCwnd:  2,
		rate:     netsim.Gbps,
	}
	h.sh = NewShadow(cfg)
	h.sh.Attach(h)
	return h
}

func (h *harness) Now() sim.Time { return h.sched.Now() }
func (h *harness) After(d time.Duration, fn func()) sim.Timer {
	return h.sched.After(d, fn)
}
func (h *harness) Cwnd() float64 { return h.cwnd }
func (h *harness) SetCwnd(w float64) {
	// Conn.SetCwnd's clamp, replicated exactly.
	if w < h.minCwnd {
		w = h.minCwnd
	}
	if w > 1<<30 {
		w = 1 << 30
	}
	h.cwnd = w
}
func (h *harness) Ssthresh() float64 { return h.ssthresh }
func (h *harness) SetSsthresh(w float64) {
	if w < h.minCwnd {
		w = h.minCwnd
	}
	h.ssthresh = w
}
func (h *harness) MinCwnd() float64 { return h.minCwnd }
func (h *harness) FlightSegs() int  { return h.flight }
func (h *harness) SRTT() time.Duration {
	return 0 // unused by the policy under test
}
func (h *harness) SinceLastSend() (time.Duration, bool) {
	if !h.hasSent {
		return 0, false
	}
	return h.sched.Now().Sub(h.lastSend), true
}
func (h *harness) Suspend() { h.suspended = true }
func (h *harness) Resume()  { h.suspended = false }
func (h *harness) AllowBeyondWindow(n int) {
	if n < 0 {
		n = 0
	}
	h.bonus = n
}
func (h *harness) LinkRate() netsim.Bitrate { return h.rate }
func (h *harness) WirePacketSize() int      { return harnessMSS + netsim.HeaderSize }

// send attempts one new-data segment with the sender's gating order:
// BeforeSend, suspension re-check, window check (bonus included).
func (h *harness) send() bool {
	if h.suspended {
		return false
	}
	h.sh.BeforeSend()
	if h.suspended {
		return false
	}
	fits := float64(h.flight+1) <= h.cwnd+1e-9
	if !fits && h.bonus == 0 {
		return false
	}
	seq := h.sndNxt
	h.sndNxt += harnessMSS
	h.flight++
	var gap time.Duration
	if h.hasSent {
		gap = h.sched.Now().Sub(h.lastSend)
	}
	h.sh.OnSent(tcp.SendEvent{Seq: seq, EndSeq: h.sndNxt, Gap: gap})
	h.hasSent = true
	h.lastSend = h.sched.Now()
	if !fits && h.bonus > 0 {
		h.bonus--
	}
	return true
}

// retransmit re-sends the first unacked segment (no window gate, like
// the sender's loss-recovery paths).
func (h *harness) retransmit() {
	if h.sndUna == h.sndNxt {
		return
	}
	h.sh.OnSent(tcp.SendEvent{Seq: h.sndUna, EndSeq: h.sndUna + harnessMSS, Retransmit: true})
}

// ack advances the cumulative ACK over segs segments with the given
// RTT sample (0 = no sample, as after a retransmission ambiguity).
func (h *harness) ack(segs int, rtt time.Duration, inRecovery bool) {
	if segs > h.flight {
		segs = h.flight
	}
	if segs <= 0 {
		return
	}
	h.sndUna += int64(segs) * harnessMSS
	h.flight -= segs
	h.sh.OnAck(tcp.AckEvent{
		Ack:        h.sndUna,
		AckedBytes: int64(segs) * harnessMSS,
		AckedSegs:  segs,
		RTT:        rtt,
		InRecovery: inRecovery,
	})
}

// timeout replays the sender's RTO sequence: ssthresh from the policy,
// window to the floor, grants revoked, go-back-N, then the hook.
func (h *harness) timeout() {
	h.SetSsthresh(h.sh.SsthreshAfterLoss())
	h.SetCwnd(h.minCwnd)
	h.bonus = 0
	h.sndNxt = h.sndUna
	h.flight = 0
	h.sh.OnTimeout()
}

// advance moves simulated time forward, firing any armed deadline.
func (h *harness) advance(d time.Duration) {
	h.sched.RunUntil(h.sched.Now().Add(d))
}

// check fails the test on any recorded divergence.
func (h *harness) check() {
	h.t.Helper()
	for _, d := range h.sh.Divergences() {
		h.t.Errorf("divergence: %s", d)
	}
	if h.sh.Total() > len(h.sh.Divergences()) {
		h.t.Errorf("%d divergences in total", h.sh.Total())
	}
}

// --- deterministic lockstep tests ---------------------------------------

// TestLockstepProbeCycle walks a full probe exchange — idle gap, two
// probes, suspension, both ACKs — checking live-vs-oracle at each hook.
func TestLockstepProbeCycle(t *testing.T) {
	h := newHarness(t, core.Config{})
	// Grow an initial window with a first train.
	for i := 0; i < 4; i++ {
		h.send()
	}
	h.advance(100 * time.Microsecond)
	h.ack(4, 100*time.Microsecond, false)
	// Idle beyond the smoothed RTT, then a new train probes.
	h.advance(2 * time.Millisecond)
	if !h.send() || !h.send() {
		t.Fatal("probe packets refused")
	}
	if !h.sh.Live().Probing() || !h.suspended {
		t.Fatalf("probing=%v suspended=%v after two probes", h.sh.Live().Probing(), h.suspended)
	}
	if h.send() {
		t.Fatal("send while suspended")
	}
	h.advance(120 * time.Microsecond)
	h.ack(2, 120*time.Microsecond, false)
	if h.sh.Live().Probing() || h.suspended {
		t.Fatal("exchange did not resolve on the second probe ACK")
	}
	h.check()
}

// TestLockstepPartialProbeAck covers one probe ACKed and the deadline
// collecting the other.
func TestLockstepPartialProbeAck(t *testing.T) {
	h := newHarness(t, core.Config{})
	for i := 0; i < 4; i++ {
		h.send()
	}
	h.ack(4, 150*time.Microsecond, false)
	h.advance(3 * time.Millisecond)
	h.send()
	h.send()
	h.ack(1, 150*time.Microsecond, false) // only the first probe returns
	if !h.sh.Live().Probing() {
		t.Fatal("exchange resolved with a probe outstanding")
	}
	h.advance(5 * time.Millisecond) // deadline fires
	if h.sh.Live().Probing() || h.sh.Live().ProbeTimeouts() != 1 {
		t.Fatalf("probing=%v timeouts=%d after deadline", h.sh.Live().Probing(), h.sh.Live().ProbeTimeouts())
	}
	h.check()
}

// TestLockstepTimeoutMidProbe covers an RTO while suspended with both
// probes outstanding.
func TestLockstepTimeoutMidProbe(t *testing.T) {
	h := newHarness(t, core.Config{})
	for i := 0; i < 4; i++ {
		h.send()
	}
	h.ack(4, 150*time.Microsecond, false)
	h.advance(3 * time.Millisecond)
	h.send()
	h.send()
	h.timeout()
	if h.sh.Live().Probing() || h.suspended || h.bonus != 0 {
		t.Fatalf("probing=%v suspended=%v bonus=%d after RTO", h.sh.Live().Probing(), h.suspended, h.bonus)
	}
	h.check()
}

// TestTamperedOracleDetected proves the lockstep comparison is not
// vacuous: a one-percent tampering of the oracle's alpha must diverge.
func TestTamperedOracleDetected(t *testing.T) {
	divs := 0
	for seed := int64(1); seed <= 20; seed++ {
		sc := GenScenario(seed)
		sh := NewShadow(sc.Cfg)
		sh.oracle.cfg.Alpha += 0.01
		res, err := runScenarioWith(sc, sim.NewScheduler(), sh)
		if err != nil {
			t.Fatal(err)
		}
		divs += res.Total
	}
	if divs == 0 {
		t.Fatal("tampered oracle produced zero divergences — the checker is vacuous")
	}
}

// FuzzShadowHookStream feeds arbitrary hook sequences — sends, ACKs
// with arbitrary RTTs (including none), retransmissions, RTOs, and time
// jumps — through the live policy and the Oracle in lockstep. Any
// divergence is a conformance bug.
func FuzzShadowHookStream(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 40, 1, 4, 60, 0, 0, 90, 1, 2, 50})
	f.Add([]byte{0, 0, 90, 1, 4, 120, 0, 0, 3, 90})
	f.Add([]byte{0, 0, 0, 0, 40, 1, 4, 60, 90, 0, 0, 2, 90, 1, 2, 50})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 256 {
			ops = ops[:256]
		}
		// Vary the deviation knobs from the stream's first byte so the
		// paper-literal deadline is fuzzed too.
		cfg := core.Config{}
		if len(ops) > 0 {
			cfg.ProbeDeadlineFactor = []float64{0, 1, 2, 3}[ops[0]%4]
			if ops[0]%5 == 0 {
				cfg.BaseRTT = 200 * time.Microsecond
			}
		}
		h := newHarness(t, cfg)
		for i := 0; i < len(ops); i++ {
			op := ops[i]
			arg := func() int {
				i++
				if i < len(ops) {
					return int(ops[i])
				}
				return 1
			}
			switch op % 6 {
			case 0: // send one segment
				h.send()
			case 1: // cumulative ACK: segs then rtt (µs; 0 = no sample)
				segs := arg()%8 + 1
				rtt := time.Duration(arg()*7) * time.Microsecond
				h.ack(segs, rtt, false)
			case 2: // ACK during fast recovery
				h.ack(arg()%4+1, time.Duration(arg()*11)*time.Microsecond, true)
			case 3: // retransmission
				h.retransmit()
			case 4: // dup ACK
				h.sh.OnDupAck()
			case 5: // time advance (µs, quadratic to reach deadlines)
				n := arg()
				h.advance(time.Duration(n*n) * time.Microsecond)
			}
		}
		// Drain any armed deadline, then settle.
		h.advance(time.Second)
		h.timeout()
		h.check()
	})
}
