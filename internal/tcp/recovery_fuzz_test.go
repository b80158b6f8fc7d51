package tcp

// Differential fuzz over the recovery extraction. Two obligations:
//
//  1. Lockstep: a connection with an explicitly constructed Classic
//     policy must be bit-for-bit indistinguishable (final stats,
//     delivered bytes) from one using the implicit default, across
//     randomized fault scenarios — the refactor guard that keeps the
//     extraction verbatim.
//  2. Safety: whichever policy the fuzzer picks must survive the same
//     scenario with invariant checks armed (the sendSegment invariant
//     forbids bogus retransmissions) and drain the transfer. Every
//     policy must drain, classic included: there is no stall exemption.

import (
	"testing"
	"time"

	"tcptrim/internal/netsim"
	"tcptrim/internal/sim"
)

// fuzzRecoveryRun executes one randomized fault scenario with the given
// policy and returns the connection after the run, failing the test if
// the transfer did not drain once the faults cleared.
func fuzzRecoveryRun(t *testing.T, rec RecoveryPolicy, withAgent bool,
	seed int64, loss, reorder, dup uint8, segs int) *Conn {
	t.Helper()
	sn := newSwitchFaultNet(t, gigLink(16))
	if withAgent {
		if _, err := netsim.AttachTRACKs(sn.net, sn.sw, netsim.TRACKsConfig{}); err != nil {
			t.Fatalf("AttachTRACKs: %v", err)
		}
	}
	c := newTestConn(t, sn.asTestNet(), Config{
		MinRTO:   10 * time.Millisecond,
		SACK:     true,
		Recovery: rec,
	})
	ge := netsim.GEConfig{
		PGoodBad: float64(loss%32) / 100,
		PBadGood: 0.1,
		LossBad:  0.5,
	}
	sn.at(t, time.Millisecond, func() {
		if ge.Enabled() {
			sn.down.InjectGilbertElliott(ge, sim.NewRand(seed))
		}
		if reorder%32 > 0 {
			sn.down.InjectReorder(float64(reorder%32)/100, 300*time.Microsecond, sim.NewRand(seed+1))
		}
		if dup%16 > 0 {
			sn.down.InjectDuplicate(float64(dup%16)/100, sim.NewRand(seed+2))
		}
	})
	sn.at(t, 60*time.Millisecond, func() {
		sn.down.InjectGilbertElliott(netsim.GEConfig{}, nil)
		sn.down.InjectReorder(0, 0, nil)
		sn.down.InjectDuplicate(0, nil)
	})
	done := false
	c.SendTrain(segs*DefaultMSS, func(TrainResult) { done = true })
	sn.sched.RunUntil(sim.At(10 * time.Second))
	sn.net.CheckInvariants()
	if !done {
		name := "default"
		if rec != nil {
			name = rec.Name()
		}
		t.Fatalf("%s: train never completed after faults cleared "+
			"(sndUna=%d sndNxt=%d maxSent=%d bufEnd=%d rtoPending=%v)",
			name, c.hot.sndUna, c.hot.sndNxt, c.hot.maxSent, c.hot.bufEnd,
			c.rtoTimer.Pending())
	}
	return c
}

func FuzzClassicRecoveryLockstep(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(3), uint8(1), uint16(80), uint8(0))
	f.Add(int64(7), uint8(20), uint8(10), uint8(5), uint16(200), uint8(1))
	f.Add(int64(42), uint8(31), uint8(0), uint8(0), uint16(40), uint8(2))
	f.Add(int64(-3), uint8(0), uint8(15), uint8(9), uint16(120), uint8(1))

	f.Fuzz(func(t *testing.T, seed int64, loss, reorder, dup uint8, trainSegs uint16, policyIdx uint8) {
		segs := int(trainSegs)%300 + 20

		// Lockstep: implicit default vs explicit Classic.
		implicit := fuzzRecoveryRun(t, nil, false, seed, loss, reorder, dup, segs)
		explicit := fuzzRecoveryRun(t, NewClassicRecovery(), false, seed, loss, reorder, dup, segs)
		if implicit.Stats() != explicit.Stats() {
			t.Errorf("explicit classic diverged from default:\n default: %+v\nexplicit: %+v",
				implicit.Stats(), explicit.Stats())
		}
		if a, b := implicit.DeliveredBytes(), explicit.DeliveredBytes(); a != b {
			t.Errorf("delivered bytes diverged: default %d, explicit %d", a, b)
		}

		// Safety: the fuzzer-chosen policy survives the same scenario.
		name := RecoveryNames()[int(policyIdx)%len(RecoveryNames())]
		rec, err := NewRecoveryPolicy(name)
		if err != nil {
			t.Fatal(err)
		}
		c := fuzzRecoveryRun(t, rec, name == "tracks", seed, loss, reorder, dup, segs)
		st := c.Stats()
		if sum := st.RTORetransSegs + st.FastRetransSegs + st.TLPProbes; sum != st.RetransSegs {
			t.Errorf("%s breakdown %d+%d+%d != RetransSegs %d",
				name, st.RTORetransSegs, st.FastRetransSegs, st.TLPProbes, st.RetransSegs)
		}
	})
}
