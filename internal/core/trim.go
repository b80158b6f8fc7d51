// Package core implements TCP-TRIM, the paper's primary contribution: a
// sender-only congestion-control policy for persistent HTTP connections
// that (a) conditionally inherits the congestion window across ON/OFF
// gaps using two probe packets (Algorithm 1 and Eq. 1), and (b) bounds the
// switch queue with a delay threshold K and DCTCP-style gentle decrease
// (Algorithm 2, Eq. 2–3), with K chosen per the steady-state analysis of
// Section III.B (Eq. 22).
package core

import (
	"math"
	"time"

	"tcptrim/internal/netsim"
	"tcptrim/internal/sim"
	"tcptrim/internal/tcp"
)

// DefaultAlpha is the paper's smoothing weight for the new RTT sample
// ("α … is set to 0.25 throughout all the tests").
const DefaultAlpha = 0.25

// probeCount is the number of probe packets sent at the start of an ON
// period (Algorithm 1 sets cwnd to 2 and sends both packets as probes).
const probeCount = 2

// DefaultProbeDeadlineFactor is the default probe-deadline scale: 2× the
// smoothed RTT rather than Algorithm 2's literal 1× (a declared deviation;
// the rationale is on Config.ProbeDeadlineFactor).
const DefaultProbeDeadlineFactor = 2

// Config tunes TCP-TRIM. The zero value reproduces the paper's settings.
type Config struct {
	// Alpha is the smoothed-RTT gain; 0 means DefaultAlpha.
	Alpha float64
	// K fixes the delay threshold. Zero derives K from Eq. 22 using the
	// connection's configured link rate and the measured minimum RTT,
	// recomputed whenever minRTT drops.
	K time.Duration
	// BaseRTT, when set, is the known queue-free round-trip time D of
	// Eq. 22 and Eq. 1. In the paper's analysis D is a topology constant,
	// not a per-flow measurement; configuring it keeps K identical across
	// flows, which is what makes concurrent TRIM flows converge to the
	// fair share (a flow that starts against a standing queue can never
	// observe the true D on its own). Zero falls back to the measured
	// minimum RTT.
	BaseRTT time.Duration
	// FallbackKFactor sets K = factor × minRTT when no link rate is
	// configured and K is not fixed; 0 means 2.
	FallbackKFactor float64
	// ProbeDeadlineFactor scales the probe-ACK deadline of Algorithm 2
	// line 11 in units of the smoothed RTT; 0 means
	// DefaultProbeDeadlineFactor. The paper's literal pseudocode waits
	// 1× the smoothed RTT, but a 1× deadline races the probe ACKs it is
	// waiting for (their RTT is at least the smoothed RTT whenever any
	// queueing exists), so the default is a declared deviation — see
	// DESIGN.md §7 "Conformance". Set 1 for the paper-literal behavior.
	ProbeDeadlineFactor float64

	// DisableProbing turns off the inter-train probe mechanism
	// (ablation: queue control only).
	DisableProbing bool
	// DisableQueueControl turns off the delay-based decrease
	// (ablation: probing only).
	DisableQueueControl bool
}

// Trim is the TCP-TRIM window policy. Create one per connection.
type Trim struct {
	cfg Config
	ctl tcp.Control

	smoothRTT time.Duration
	minRTT    time.Duration
	k         time.Duration

	probing   bool
	savedCwnd float64
	// probeEnds[:probesSent] are the end sequences of this exchange's
	// probes, in send order; the first probesAcked are covered by the
	// cumulative ACK. probeRTTs[:nProbeRTTs] are its RTT samples, at most
	// one per covering ACK. Arrays, not slices: a round allocates nothing.
	probeEnds   [probeCount]int64
	probeRTTs   [probeCount]time.Duration
	probesSent  int
	probesAcked int
	nProbeRTTs  int
	probeTimer  sim.Timer
	probeFn     func()
	probeRounds int
	// lastResume marks when the last probe exchange ended; the idle-gap
	// test measures from it so the probe pause itself never reads as a
	// new inter-train gap.
	lastResume    sim.Time
	everResumed   bool
	probeTimeouts int

	lastDecrease    sim.Time
	everDecreased   bool
	queueReductions int
}

var _ tcp.CongestionControl = (*Trim)(nil)

// WithDefaults returns the configuration with every zero field resolved
// to its default, exactly as New resolves it. The conformance oracle uses
// this to mirror the live policy's effective settings.
func (c Config) WithDefaults() Config {
	if c.Alpha == 0 {
		c.Alpha = DefaultAlpha
	}
	if c.FallbackKFactor == 0 {
		c.FallbackKFactor = 2
	}
	if c.ProbeDeadlineFactor <= 0 {
		c.ProbeDeadlineFactor = DefaultProbeDeadlineFactor
	}
	return c
}

// New returns a TCP-TRIM policy with cfg (zero value = paper settings).
func New(cfg Config) *Trim {
	return &Trim{cfg: cfg.WithDefaults()}
}

// Name implements tcp.CongestionControl.
func (t *Trim) Name() string { return "TCP-TRIM" }

// Attach implements tcp.CongestionControl.
func (t *Trim) Attach(ctl tcp.Control) {
	t.ctl = ctl
	if t.cfg.BaseRTT > 0 {
		// K is a topology constant when D is configured; no need to wait
		// for RTT samples.
		t.updateK()
	}
}

// Recycle resets the policy to what New returned for its configuration —
// no RTT history, no saved window, no counters — so that it can serve an
// unrelated flow once its own is over (hybrid.FleetConfig.NewCC). Only
// the deadline callback, which is bound to the object, survives. Call it
// detached and Quiescent.
func (t *Trim) Recycle() {
	*t = Trim{cfg: t.cfg, probeFn: t.probeFn}
}

// SmoothRTT returns the policy's smoothed RTT (Algorithm 2 line 2).
func (t *Trim) SmoothRTT() time.Duration { return t.smoothRTT }

// MinRTT returns the observed minimum RTT (the queue-free latency D).
func (t *Trim) MinRTT() time.Duration { return t.minRTT }

// baseRTT returns the queue-free RTT estimate: the configured constant
// when provided, else the measured minimum.
func (t *Trim) baseRTT() time.Duration {
	if t.cfg.BaseRTT > 0 {
		return t.cfg.BaseRTT
	}
	return t.minRTT
}

// K returns the current delay threshold.
func (t *Trim) K() time.Duration { return t.k }

// Probing reports whether a probe exchange is in flight.
func (t *Trim) Probing() bool { return t.probing }

// Quiescent implements tcp.Quiescer: TRIM holds cross-event state of its
// own (the probe cycle and its deadline timer); a connection may only be
// detached between probe exchanges. The inherited window, RTT estimate,
// and probe history persist in the policy object across detach/attach —
// the paper's cross-train window inheritance.
func (t *Trim) Quiescent() bool { return !t.probing && !t.probeTimer.Pending() }

// ProbeRounds returns how many probe exchanges were started.
func (t *Trim) ProbeRounds() int { return t.probeRounds }

// ProbeTimeouts returns how many probe exchanges expired without their
// ACKs and fell back to the minimum window.
func (t *Trim) ProbeTimeouts() int { return t.probeTimeouts }

// QueueReductions returns how many delay-triggered window cuts were made.
func (t *Trim) QueueReductions() int { return t.queueReductions }

// BeforeSend implements tcp.CongestionControl: Algorithm 1. If the idle
// interval since the last transmission exceeds the smoothed RTT, save the
// accumulated window, drop to the probe window, and let the next packets
// go out as probes.
func (t *Trim) BeforeSend() {
	if t.cfg.DisableProbing || t.probing || t.smoothRTT == 0 {
		return
	}
	gap, sent := t.ctl.SinceLastSend()
	if !sent {
		return
	}
	if t.everResumed {
		// Waiting out our own probe exchange is not application idle
		// time; measure from whichever is more recent.
		if since := t.ctl.Now().Sub(t.lastResume); since < gap {
			gap = since
		}
	}
	if gap <= t.smoothRTT {
		return
	}
	t.probing = true
	t.probeRounds++
	t.savedCwnd = t.ctl.Cwnd()
	t.probesSent, t.probesAcked, t.nProbeRTTs = 0, 0, 0
	t.ctl.SetCwnd(probeCount)
	// Stale flight from a stalled previous train must not dead-lock the
	// probe exchange: grant the probes passage beyond the (now tiny)
	// window.
	t.ctl.AllowBeyondWindow(probeCount)
}

// OnSent implements tcp.CongestionControl: tag up to two new-data packets
// as probes, then suspend transmission and arm the probe deadline of one
// smoothed RTT (Algorithm 2 lines 8 and 11).
func (t *Trim) OnSent(ev tcp.SendEvent) bool {
	if !t.probing || ev.Retransmit || t.probesSent >= probeCount {
		return false
	}
	t.probeEnds[t.probesSent] = ev.EndSeq
	t.probesSent++
	if t.probesSent == 1 {
		t.armProbeDeadline()
	}
	if t.probesSent == probeCount {
		t.ctl.Suspend()
	}
	return true
}

func (t *Trim) armProbeDeadline() {
	// Algorithm 2 waits "a smoothed RTT" for the probe ACKs, scaled by
	// the ProbeDeadlineFactor deviation knob (default 2× — still far
	// below any RTO; see Config.ProbeDeadlineFactor).
	deadline := time.Duration(t.cfg.ProbeDeadlineFactor * float64(t.smoothRTT))
	if deadline <= 0 {
		deadline = time.Millisecond
	}
	if !t.probeTimer.Reset(deadline) {
		if t.probeFn == nil {
			// Bound at the first deadline, not in Attach: a policy that
			// outlives its connections is re-attached once per train.
			t.probeFn = t.onProbeDeadline
		}
		t.probeTimer = t.ctl.After(deadline, t.probeFn)
	}
}

// onProbeDeadline fires when a probe ACK failed to arrive within one
// smoothed RTT: fall back to the minimum window (Algorithm 2 line 12).
func (t *Trim) onProbeDeadline() {
	if !t.probing {
		return
	}
	t.probeTimeouts++
	t.endProbe()
	t.ctl.SetCwnd(probeCount)
	t.ctl.Resume()
}

func (t *Trim) endProbe() {
	t.probing = false
	t.lastResume = t.ctl.Now()
	t.everResumed = true
	// Revoke any unused beyond-window allowance: it exists only so the
	// probes themselves can depart past stale flight.
	t.ctl.AllowBeyondWindow(0)
	t.probeTimer.Stop()
	t.probeTimer = sim.Timer{}
}

// OnAck implements tcp.CongestionControl: Algorithm 2.
func (t *Trim) OnAck(ev tcp.AckEvent) {
	if ev.RTT > 0 {
		t.observeRTT(ev.RTT)
	}

	if t.probing {
		t.onProbeAck(ev)
		return
	}

	// Standard window growth rides underneath TRIM's regulation.
	tcp.GrowReno(t.ctl, ev)

	if t.cfg.DisableQueueControl || ev.RTT <= 0 {
		return
	}
	t.queueControl(ev.RTT)
}

// onProbeAck collects probe RTT samples; once every sent probe is covered
// by the cumulative ACK, tune the inherited window per Eq. 1 and resume.
func (t *Trim) onProbeAck(ev tcp.AckEvent) {
	matched := false
	for t.probesAcked < t.probesSent && t.probeEnds[t.probesAcked] <= ev.Ack {
		t.probesAcked++
		matched = true
	}
	if matched && ev.RTT > 0 {
		t.probeRTTs[t.nProbeRTTs] = ev.RTT
		t.nProbeRTTs++
	}
	if t.probesSent == 0 || t.probesAcked < t.probesSent {
		return
	}
	t.endProbe()
	w := t.tunedWindow()
	t.ctl.SetCwnd(w)
	// The tuned window already reflects the probed congestion state;
	// continue in congestion avoidance rather than doubling from it
	// (same spirit as RFC 2861's window validation after idle).
	t.ctl.SetSsthresh(w)
	t.ctl.Resume()
}

// tunedWindow applies Eq. 1: cwnd = s_cwnd × (1 − (probeRTT−minRTT)/minRTT),
// clamped to the legacy minimum window when the probe RTT indicates the
// congestion state changed drastically (Section III.C).
func (t *Trim) tunedWindow() float64 {
	minW := t.ctl.MinCwnd()
	base := t.baseRTT()
	if t.nProbeRTTs == 0 || base <= 0 {
		return minW
	}
	var sum time.Duration
	for _, r := range t.probeRTTs[:t.nProbeRTTs] {
		sum += r
	}
	probeRTT := sum / time.Duration(t.nProbeRTTs)
	factor := 1 - float64(probeRTT-base)/float64(base)
	w := t.savedCwnd * factor
	if w < minW {
		return minW
	}
	if w > t.savedCwnd {
		w = t.savedCwnd
	}
	return w
}

// queueControl applies Eq. 2–3 at most once per smoothed RTT: when the
// measured RTT exceeds K, shrink the window in proportion to half the
// excess-delay fraction.
func (t *Trim) queueControl(rtt time.Duration) {
	if t.k <= 0 || rtt < t.k {
		return
	}
	now := t.ctl.Now()
	if t.everDecreased && now.Sub(t.lastDecrease) < t.smoothRTT {
		return
	}
	ep := float64(rtt-t.k) / float64(rtt)
	t.ctl.SetCwnd(t.ctl.Cwnd() * (1 - ep/2))
	// A delay-triggered cut is a congestion signal: leave slow start so
	// exponential growth cannot immediately overshoot the queue again.
	t.ctl.SetSsthresh(t.ctl.Cwnd())
	t.lastDecrease = now
	t.everDecreased = true
	t.queueReductions++
}

// observeRTT maintains smooth_RTT, min_RTT, and K (Algorithm 2 lines 2–6).
func (t *Trim) observeRTT(rtt time.Duration) {
	if t.smoothRTT == 0 {
		t.smoothRTT = rtt
	} else {
		a := t.cfg.Alpha
		t.smoothRTT = time.Duration((1-a)*float64(t.smoothRTT) + a*float64(rtt))
	}
	if t.minRTT == 0 || rtt < t.minRTT {
		t.minRTT = rtt
		t.updateK()
	}
}

func (t *Trim) updateK() {
	if t.cfg.K > 0 {
		t.k = t.cfg.K
		return
	}
	base := t.baseRTT()
	rate := t.ctl.LinkRate()
	if rate <= 0 {
		t.k = time.Duration(t.cfg.FallbackKFactor * float64(base))
		return
	}
	c := rate.PacketsPerSecond(t.ctl.WirePacketSize())
	t.k = GuidelineK(c, base)
}

// OnDupAck implements tcp.CongestionControl.
func (t *Trim) OnDupAck() {}

// SsthreshAfterLoss implements tcp.CongestionControl: TRIM keeps the
// legacy Reno loss response.
func (t *Trim) SsthreshAfterLoss() float64 { return tcp.HalfWindow(t.ctl) }

// OnTimeout implements tcp.CongestionControl: abandon any probe exchange
// (its packets are being retransmitted) and let the sender restart.
func (t *Trim) OnTimeout() {
	if t.probing {
		t.endProbe()
	}
	t.ctl.Resume()
}

// GuidelineK evaluates Eq. 22: K ≥ max( (√(2·C·D) − 1)² / C , D ), with C
// the bottleneck capacity in packets per second and D the queue-free
// round-trip time. The returned K guarantees full bottleneck utilization
// in the paper's synchronized steady-state model for any number of flows.
func GuidelineK(packetsPerSecond float64, d time.Duration) time.Duration {
	if packetsPerSecond <= 0 || d <= 0 {
		return d
	}
	dSec := d.Seconds()
	root := math.Sqrt(2*packetsPerSecond*dSec) - 1
	kSec := root * root / packetsPerSecond
	k := time.Duration(kSec * float64(time.Second))
	// The floor K ≥ D must hold exactly in Duration space; the float
	// round trip can land one nanosecond short.
	if k < d {
		k = d
	}
	return k
}

// GuidelineKForLink is a convenience wrapper computing C from a link rate
// and wire packet size.
func GuidelineKForLink(rate netsim.Bitrate, wirePacketSize int, d time.Duration) time.Duration {
	return GuidelineK(rate.PacketsPerSecond(wirePacketSize), d)
}
