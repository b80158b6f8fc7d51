package tcp

// Regression coverage for the lone tail sent from an idle window: trySend
// advances sndNxt only after sendSegment returns, so an idle test there
// would see no data outstanding and arm no retransmission timer, and
// losing that single segment would stall the connection forever.
// sendSegment starts the RTO on every data send instead (RFC 6298 §5.1).

import (
	"testing"
	"time"

	"tcptrim/internal/sim"
)

// TestArmRTOOnLoneTailRecovers sends one train (establishing an RTT
// estimate and an idle window), blacks out the data path, releases a lone
// 1-MSS train into the blackout, lifts the blackout, and runs to quiet:
// the RTO must resend the lost tail and both trains must complete.
func TestArmRTOOnLoneTailRecovers(t *testing.T) {
	sim.SetInvariantChecks(true)
	t.Cleanup(func() { sim.SetInvariantChecks(false) })
	fn := newFaultNet(t, gigLink(100))
	c := newTestConn(t, fn.asTestNet(), Config{MinRTO: 10 * time.Millisecond})
	completed := 0
	c.SendTrain(DefaultMSS, func(TrainResult) { completed++ })
	fn.at(t, 5*time.Millisecond, func() { fn.fwd.SetLinkDown(true) })
	fn.at(t, 6*time.Millisecond, func() {
		c.SendTrain(DefaultMSS, func(TrainResult) { completed++ })
		if !c.rtoTimer.Pending() {
			t.Error("lone tail sent from an idle window armed no RTO")
		}
	})
	fn.at(t, 8*time.Millisecond, func() { fn.fwd.SetLinkDown(false) })
	fn.sched.RunUntil(sim.At(2 * time.Second))
	fn.net.CheckInvariants()

	if completed != 2 {
		t.Fatalf("completed = %d, want both trains", completed)
	}
	if c.DeliveredBytes() != 2*DefaultMSS {
		t.Errorf("DeliveredBytes = %d, want %d", c.DeliveredBytes(), 2*DefaultMSS)
	}
	if c.Stats().Timeouts == 0 {
		t.Error("want at least one timeout: only the RTO can repair the lone tail")
	}
	if c.rtoTimer.Pending() {
		t.Error("drained connection should have stopped its RTO")
	}
}
