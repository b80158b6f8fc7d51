package conformance

import (
	"fmt"
	"strings"
	"time"

	"tcptrim/internal/core"
	"tcptrim/internal/sim"
	"tcptrim/internal/tcp"
)

// Divergence is one disagreement between the live policy and the
// Oracle: a field (window write, control call, counter, RTT estimator,
// probe flag, ...) where the two computed different values for the same
// hook invocation.
type Divergence struct {
	// Hook names the hook invocation that diverged (with its event).
	Hook string
	// At is the simulation time of the hook.
	At sim.Time
	// Field names what disagreed.
	Field string
	// Live and Oracle are the two values, formatted.
	Live, Oracle string
	// Trace holds the most recent hook invocations up to the
	// divergence, oldest first — the minimized context for a report.
	Trace []string
}

func (d Divergence) String() string {
	return fmt.Sprintf("%v %s: %s: live=%s oracle=%s", d.At, d.Hook, d.Field, d.Live, d.Oracle)
}

const (
	traceLen = 48 // hook invocations kept for divergence context
	maxDivs  = 16 // detailed divergences kept (total is still counted)
)

// Shadow is a tcp.CongestionControl that runs the live core.Trim and
// the reference Oracle in lockstep: every hook is first evaluated by
// the Oracle on a snapshot of the live connection's state, then
// executed by the live policy through an interposed tcp.Control that
// records the calls it actually makes, and the two are compared. It is
// transparent — the live policy's outputs always drive the connection,
// so a shadowed connection behaves identically to an unshadowed one.
type Shadow struct {
	live   *core.Trim
	oracle *Oracle
	inner  tcp.Control

	frames []frame
	divs   []Divergence
	total  int

	trace  [traceLen]entry
	traceN int

	// Run-wide invariants checked by Finish.
	liveSuspends int
	liveResumes  int
	lastGrant    int // -1 until the first AllowBeyondWindow call
}

var _ tcp.CongestionControl = (*Shadow)(nil)

// frame is one in-flight hook invocation; nested hooks (Resume →
// trySend → BeforeSend/OnSent) push their own frames so recorded calls
// are attributed to the hook that made them. A hook holds its frame by
// index: a nested push may move the stack.
type frame struct {
	entry
	got Calls
}

// hookKind names a hook.
type hookKind uint8

const (
	hookAttach hookKind = iota
	hookBeforeSend
	hookOnSent
	hookOnAck
	hookOnDupAck
	hookSsthresh
	hookOnTimeout
	hookDeadline
	hookFinish
)

var hookNames = [...]string{"Attach", "BeforeSend", "OnSent", "OnAck", "OnDupAck",
	"SsthreshAfterLoss", "OnTimeout", "ProbeDeadline", "Finish"}

// entry is one hook invocation as recorded, its event's fields as values:
// it is formatted only when a divergence reports it. OnSent keeps the
// segment's Seq, EndSeq and Retransmit in a, b and flag; OnAck its Ack,
// AckedSegs, RTT and InRecovery.
type entry struct {
	at   sim.Time
	kind hookKind
	flag bool
	a, b int64
	rtt  time.Duration
}

// hook renders the invocation with its event.
func (e entry) hook() string {
	switch e.kind {
	case hookOnSent:
		return fmt.Sprintf("OnSent seq=%d end=%d rtx=%v", e.a, e.b, e.flag)
	case hookOnAck:
		return fmt.Sprintf("OnAck ack=%d segs=%d rtt=%v rec=%v", e.a, e.b, e.rtt, e.flag)
	}
	return hookNames[e.kind]
}

// NewShadow builds a shadowed TRIM policy for cfg. Use it anywhere a
// tcp.CongestionControl is accepted.
func NewShadow(cfg core.Config) *Shadow {
	return &Shadow{
		live:      core.New(cfg),
		oracle:    NewOracle(cfg),
		lastGrant: -1,
	}
}

// Live exposes the shadowed policy (for its accessors).
func (s *Shadow) Live() *core.Trim { return s.live }

// Divergences returns the recorded divergences (capped at maxDivs;
// Total reports how many occurred in all).
func (s *Shadow) Divergences() []Divergence { return s.divs }

// Total returns the total number of divergences observed.
func (s *Shadow) Total() int { return s.total }

// --- tcp.CongestionControl ---------------------------------------------

// Name implements tcp.CongestionControl, delegating to the live policy
// so stats and captions are unchanged by shadowing.
func (s *Shadow) Name() string { return s.live.Name() }

// Attach implements tcp.CongestionControl: the live policy is attached
// through the recording interposer.
func (s *Shadow) Attach(ctl tcp.Control) {
	s.inner = ctl
	f := s.begin(entry{kind: hookAttach})
	s.oracle.BeginHook(s.snap())
	s.oracle.Attach()
	want := s.oracle.C.clone()
	s.live.Attach(&shadowCtl{Control: ctl, s: s})
	s.finish(f, want)
}

// BeforeSend implements tcp.CongestionControl.
func (s *Shadow) BeforeSend() {
	f := s.begin(entry{kind: hookBeforeSend})
	s.oracle.BeginHook(s.snap())
	s.oracle.BeforeSend()
	want := s.oracle.C.clone()
	s.live.BeforeSend()
	s.finish(f, want)
}

// OnSent implements tcp.CongestionControl.
func (s *Shadow) OnSent(ev tcp.SendEvent) bool {
	f := s.begin(entry{kind: hookOnSent, a: ev.Seq, b: ev.EndSeq, flag: ev.Retransmit})
	s.oracle.BeginHook(s.snap())
	wantProbe := s.oracle.OnSent(ev)
	want := s.oracle.C.clone()
	probe := s.live.OnSent(ev)
	if probe != wantProbe {
		s.diverge(f, "probe tag", fmt.Sprint(probe), fmt.Sprint(wantProbe))
	}
	s.finish(f, want)
	return probe
}

// OnAck implements tcp.CongestionControl.
func (s *Shadow) OnAck(ev tcp.AckEvent) {
	f := s.begin(entry{kind: hookOnAck, a: ev.Ack, b: int64(ev.AckedSegs), rtt: ev.RTT, flag: ev.InRecovery})
	s.oracle.BeginHook(s.snap())
	s.oracle.OnAck(ev)
	want := s.oracle.C.clone()
	s.live.OnAck(ev)
	s.finish(f, want)
}

// OnDupAck implements tcp.CongestionControl.
func (s *Shadow) OnDupAck() {
	f := s.begin(entry{kind: hookOnDupAck})
	s.oracle.BeginHook(s.snap())
	want := s.oracle.C.clone() // the paper's policy ignores dup ACKs
	s.live.OnDupAck()
	s.finish(f, want)
}

// SsthreshAfterLoss implements tcp.CongestionControl: both sides
// compute the back-off target from the same snapshot; the live value is
// returned either way.
func (s *Shadow) SsthreshAfterLoss() float64 {
	f := s.begin(entry{kind: hookSsthresh})
	s.oracle.BeginHook(s.snap())
	wantW := s.oracle.SsthreshAfterLoss()
	want := s.oracle.C.clone()
	w := s.live.SsthreshAfterLoss()
	if w != wantW {
		s.diverge(f, "loss ssthresh", formatF(w), formatF(wantW))
	}
	s.finish(f, want)
	return w
}

// OnTimeout implements tcp.CongestionControl.
func (s *Shadow) OnTimeout() {
	f := s.begin(entry{kind: hookOnTimeout})
	s.oracle.BeginHook(s.snap())
	s.oracle.OnTimeout()
	want := s.oracle.C.clone()
	s.live.OnTimeout()
	s.finish(f, want)
}

// --- lockstep machinery ------------------------------------------------

// snap captures the live connection's observable state before a hook.
func (s *Shadow) snap() Snapshot {
	gap, hasSent := s.inner.SinceLastSend()
	return Snapshot{
		Now:            s.inner.Now(),
		Cwnd:           s.inner.Cwnd(),
		Ssthresh:       s.inner.Ssthresh(),
		MinCwnd:        s.inner.MinCwnd(),
		FlightSegs:     s.inner.FlightSegs(),
		Gap:            gap,
		HasSent:        hasSent,
		LinkRate:       s.inner.LinkRate(),
		WirePacketSize: s.inner.WirePacketSize(),
	}
}

// begin pushes the frame of the hook e, stamped now, records e in the
// trace ring, and returns the frame's index. A frame popped earlier lends
// its call lists to the new one.
func (s *Shadow) begin(e entry) int {
	e.at = s.inner.Now()
	i := len(s.frames)
	if i < cap(s.frames) {
		s.frames = s.frames[:i+1]
		s.frames[i].entry = e
		s.frames[i].got.reset()
	} else {
		s.frames = append(s.frames, frame{entry: e})
	}
	s.trace[s.traceN%traceLen] = e
	s.traceN++
	return i
}

// finish compares the calls recorded in frame f with the expectation,
// then the paper-visible policy state, and pops the frame.
func (s *Shadow) finish(f int, want Calls) {
	s.compareCalls(f, s.frames[f].got, want)
	s.compareState(f)
	s.frames = s.frames[:f]
}

func (s *Shadow) compareCalls(f int, got, want Calls) {
	if got.Suspends != want.Suspends {
		s.diverge(f, "Suspend calls", fmt.Sprint(got.Suspends), fmt.Sprint(want.Suspends))
	}
	if got.Resumes != want.Resumes {
		s.diverge(f, "Resume calls", fmt.Sprint(got.Resumes), fmt.Sprint(want.Resumes))
	}
	if !intsEqual(got.Grants, want.Grants) {
		s.diverge(f, "AllowBeyondWindow grants", fmt.Sprint(got.Grants), fmt.Sprint(want.Grants))
	}
	if !durationsEqual(got.Deadlines, want.Deadlines) {
		s.diverge(f, "probe deadlines", fmt.Sprint(got.Deadlines), fmt.Sprint(want.Deadlines))
	}
	if !floatsEqual(got.CwndSets, want.CwndSets) {
		s.diverge(f, "cwnd writes", formatFs(got.CwndSets), formatFs(want.CwndSets))
	}
	if !floatsEqual(got.SsthreshSets, want.SsthreshSets) {
		s.diverge(f, "ssthresh writes", formatFs(got.SsthreshSets), formatFs(want.SsthreshSets))
	}
}

// compareState checks the policy-internal state the paper defines:
// the RTT estimators, the threshold K, and the probe accounting.
func (s *Shadow) compareState(f int) {
	o := s.oracle
	if got, want := s.live.SmoothRTT(), o.SmoothRTT; got != want {
		s.diverge(f, "smoothed RTT", got.String(), want.String())
	}
	if got, want := s.live.MinRTT(), o.MinRTT; got != want {
		s.diverge(f, "min RTT", got.String(), want.String())
	}
	if got, want := s.live.K(), o.K; got != want {
		s.diverge(f, "K", got.String(), want.String())
	}
	if got, want := s.live.Probing(), o.Probing; got != want {
		s.diverge(f, "probing flag", fmt.Sprint(got), fmt.Sprint(want))
	}
	if got, want := s.live.ProbeRounds(), o.ProbeRounds; got != want {
		s.diverge(f, "probe rounds", fmt.Sprint(got), fmt.Sprint(want))
	}
	if got, want := s.live.ProbeTimeouts(), o.ProbeTimeouts; got != want {
		s.diverge(f, "probe timeouts", fmt.Sprint(got), fmt.Sprint(want))
	}
	if got, want := s.live.QueueReductions(), o.QueueReductions; got != want {
		s.diverge(f, "queue reductions", fmt.Sprint(got), fmt.Sprint(want))
	}
}

// onDeadlineFire runs when the live probe-deadline timer fires: the
// Oracle's deadline transition runs first on a fresh snapshot, then the
// live callback, then the two are compared like any other hook.
func (s *Shadow) onDeadlineFire(fn func()) {
	f := s.begin(entry{kind: hookDeadline})
	if !s.oracle.DeadlineArmed {
		// The live policy let a stale timer survive a probe resolution.
		s.diverge(f, "deadline fire", "fired", "disarmed")
	}
	s.oracle.BeginHook(s.snap())
	s.oracle.OnProbeDeadline()
	want := s.oracle.C.clone()
	fn()
	s.finish(f, want)
}

// diverge records one divergence against the hook in frame f.
func (s *Shadow) diverge(f int, field, live, oracle string) {
	s.divergeAt(s.frames[f].entry, field, live, oracle)
}

// divergeAt records one divergence against the hook e.
func (s *Shadow) divergeAt(e entry, field, live, oracle string) {
	s.total++
	if len(s.divs) >= maxDivs {
		return
	}
	s.divs = append(s.divs, Divergence{
		Hook:   e.hook(),
		At:     e.at,
		Field:  field,
		Live:   live,
		Oracle: oracle,
		Trace:  s.traceTail(),
	})
}

// traceTail copies the hook-invocation ring, oldest first.
func (s *Shadow) traceTail() []string {
	n := s.traceN
	if n > traceLen {
		n = traceLen
	}
	out := make([]string, 0, n)
	for i := s.traceN - n; i < s.traceN; i++ {
		e := s.trace[i%traceLen]
		out = append(out, fmt.Sprintf("%v %s", e.at, e.hook()))
	}
	return out
}

// Finish runs the end-of-run invariants and returns every recorded
// divergence. Call it after the simulation horizon:
//   - Suspend/Resume pairing: outside a probe exchange the sender must
//     not be left suspended (every Suspend answered by a Resume);
//   - grant revocation: outside a probe exchange the last
//     AllowBeyondWindow call must have been the revoking zero.
func (s *Shadow) Finish() []Divergence {
	f := entry{kind: hookFinish, at: s.inner.Now()}
	if !s.live.Probing() {
		if s.liveSuspends > s.liveResumes {
			s.divergeAt(f, "suspend/resume pairing",
				fmt.Sprintf("%d suspends, %d resumes", s.liveSuspends, s.liveResumes),
				"suspends ≤ resumes when idle")
		}
		if s.lastGrant > 0 {
			s.divergeAt(f, "beyond-window grant revocation",
				fmt.Sprintf("last grant %d", s.lastGrant), "0")
		}
	}
	return s.divs
}

// shadowCtl interposes the live policy's tcp.Control: reads pass
// through untouched; the write calls the conformance contract cares
// about are recorded against the current hook frame before delegating.
type shadowCtl struct {
	tcp.Control
	s *Shadow
}

func (c *shadowCtl) top() *frame {
	if n := len(c.s.frames); n > 0 {
		return &c.s.frames[n-1]
	}
	return nil
}

func (c *shadowCtl) SetCwnd(w float64) {
	if f := c.top(); f != nil {
		f.got.CwndSets = append(f.got.CwndSets, w)
	}
	c.Control.SetCwnd(w)
}

func (c *shadowCtl) SetSsthresh(w float64) {
	if f := c.top(); f != nil {
		f.got.SsthreshSets = append(f.got.SsthreshSets, w)
	}
	c.Control.SetSsthresh(w)
}

func (c *shadowCtl) Suspend() {
	c.s.liveSuspends++
	if f := c.top(); f != nil {
		f.got.Suspends++
	}
	c.Control.Suspend()
}

func (c *shadowCtl) Resume() {
	c.s.liveResumes++
	if f := c.top(); f != nil {
		f.got.Resumes++
	}
	c.Control.Resume()
}

func (c *shadowCtl) AllowBeyondWindow(n int) {
	c.s.lastGrant = n
	if f := c.top(); f != nil {
		f.got.Grants = append(f.got.Grants, n)
	}
	c.Control.AllowBeyondWindow(n)
}

// After wraps the policy's only timer — the probe deadline — so its
// firing runs through the lockstep comparison too.
func (c *shadowCtl) After(d time.Duration, fn func()) sim.Timer {
	if f := c.top(); f != nil {
		f.got.Deadlines = append(f.got.Deadlines, d)
	}
	return c.Control.After(d, func() { c.s.onDeadlineFire(fn) })
}

// --- comparison helpers -------------------------------------------------

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func durationsEqual(a, b []time.Duration) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// floatsEqual compares window-write sequences exactly: the Oracle
// replicates the live arithmetic operation-for-operation, so even the
// float results must agree bit-for-bit.
func floatsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func formatF(v float64) string { return fmt.Sprintf("%.9g", v) }

func formatFs(vs []float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = formatF(v)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
