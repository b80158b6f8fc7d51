package tcp

// Detach/Restore equivalence: a connection detached between trains and
// rebuilt from its SavedState must be indistinguishable — in delivered
// bytes, lifetime stats, inherited window, and RTT estimator — from one
// that stayed alive across the same train schedule. This is the
// correctness core of the hybrid-fidelity fleet's demote/materialize
// cycle.

import (
	"testing"
	"time"

	"tcptrim/internal/sim"
)

func TestDetachRestoreMatchesPersistentConn(t *testing.T) {
	type snap struct {
		stats   Stats
		deliver int64
		cwnd    float64
		srtt    time.Duration
	}
	sizes := []int{3 * DefaultMSS, 10*DefaultMSS + 77, DefaultMSS}

	run := func(detach bool) snap {
		tn := newTestNetOn(t, armed(), gigLink(100))
		arena := NewArena()
		cfg := Config{
			Sender: tn.sender, Receiver: tn.receiver, Flow: 9,
			MinRTO: 10 * time.Millisecond, Arena: arena,
			Recovery: NewRACKTLP(),
		}
		c, err := NewConn(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, size := range sizes {
			size := size
			at := sim.At(time.Duration(i) * 5 * time.Millisecond)
			if _, err := tn.sched.At(at, func() {
				if detach && i > 0 {
					// The previous train drained ≥ one RTO ago: demote and
					// rematerialize, continuing the same flow.
					st, err := c.Detach()
					if err != nil {
						t.Fatalf("Detach: %v", err)
					}
					if arena.Live() != 0 {
						t.Fatalf("arena live = %d after detach", arena.Live())
					}
					next := cfg
					next.Restore = &st
					if c, err = NewConn(next); err != nil {
						t.Fatalf("NewConn(restore): %v", err)
					}
				}
				c.SendTrain(size, nil)
			}); err != nil {
				t.Fatal(err)
			}
		}
		tn.sched.Run()
		tn.net.CheckInvariants()
		if !c.Quiescent() {
			t.Fatal("connection not quiescent after drain")
		}
		return snap{c.Stats(), c.DeliveredBytes(), c.Cwnd(), c.SRTT()}
	}

	persistent := run(false)
	cycled := run(true)
	if persistent != cycled {
		t.Errorf("detach/restore diverged:\npersistent: %+v\n    cycled: %+v", persistent, cycled)
	}
	var want int64
	for _, s := range sizes {
		want += int64(s)
	}
	if cycled.deliver != want {
		t.Errorf("DeliveredBytes = %d, want %d", cycled.deliver, want)
	}
}

func TestDetachRefusesBusyConn(t *testing.T) {
	tn := newTestNet(t, gigLink(100))
	c := newTestConn(t, tn, Config{})
	c.SendTrain(50*DefaultMSS, nil)
	tn.sched.RunUntil(sim.At(10 * time.Microsecond))
	if c.Quiescent() {
		t.Fatal("mid-transfer connection reports quiescent")
	}
	if _, err := c.Detach(); err == nil {
		t.Fatal("Detach of a busy connection succeeded")
	}
	tn.sched.Run()
	if !c.Quiescent() {
		t.Fatal("drained connection not quiescent")
	}
	if _, err := c.Detach(); err != nil {
		t.Fatalf("Detach after drain: %v", err)
	}
	// The stacks forgot the flow: a fresh NewConn may reuse it.
	if _, err := NewConn(Config{Sender: tn.sender, Receiver: tn.receiver, Flow: 1}); err != nil {
		t.Fatalf("flow not released: %v", err)
	}
}
