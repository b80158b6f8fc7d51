package tcp

// Reno is the baseline window policy: slow start, congestion avoidance,
// and half-window back-off. It is what the paper calls "TCP".
type Reno struct {
	ctl Control
}

var _ CongestionControl = (*Reno)(nil)

// NewReno returns the baseline Reno policy.
func NewReno() *Reno { return &Reno{} }

// Name implements CongestionControl.
func (r *Reno) Name() string { return "TCP" }

// Attach implements CongestionControl.
func (r *Reno) Attach(ctl Control) { r.ctl = ctl }

// Recycle resets the policy to what NewReno returns: Reno keeps nothing
// but the connection it was last attached to. Recycle is optional for a
// CongestionControl; a policy that has it can be handed to another flow
// once its own is over (hybrid.FleetConfig.NewCC).
func (r *Reno) Recycle() { *r = Reno{} }

// BeforeSend implements CongestionControl.
func (r *Reno) BeforeSend() {}

// OnSent implements CongestionControl.
func (r *Reno) OnSent(SendEvent) bool { return false }

// OnAck implements CongestionControl: standard slow-start / congestion-
// avoidance growth.
func (r *Reno) OnAck(ev AckEvent) {
	GrowReno(r.ctl, ev)
}

// OnDupAck implements CongestionControl.
func (r *Reno) OnDupAck() {}

// SsthreshAfterLoss implements CongestionControl: half the window.
func (r *Reno) SsthreshAfterLoss() float64 {
	return HalfWindow(r.ctl)
}

// OnTimeout implements CongestionControl.
func (r *Reno) OnTimeout() {}

// GrowReno applies standard Reno window growth for an advancing ACK:
// +1 segment per acked segment in slow start, +acked/cwnd in congestion
// avoidance. Growth is frozen during fast recovery (the connection handles
// inflation itself). Shared by the Reno-derived policies (DCTCP, L2DCT,
// TRIM).
func GrowReno(ctl Control, ev AckEvent) {
	if ev.InRecovery {
		return
	}
	cwnd := ctl.Cwnd()
	if cwnd < ctl.Ssthresh() {
		ctl.SetCwnd(cwnd + float64(ev.AckedSegs))
		return
	}
	ctl.SetCwnd(cwnd + float64(ev.AckedSegs)/cwnd)
}

// HalfWindow returns max(flight/2, minimum window), the classic Reno
// back-off target, shared by Reno-derived policies.
func HalfWindow(ctl Control) float64 {
	half := float64(ctl.FlightSegs()) / 2
	if minW := ctl.MinCwnd(); half < minW {
		return minW
	}
	return half
}
