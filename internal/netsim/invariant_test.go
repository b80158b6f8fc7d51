package netsim

import (
	"strings"
	"testing"
	"time"

	"tcptrim/internal/sim"
)

func TestCheckInvariantsDetectsLeak(t *testing.T) {
	r := newFaultRig(t, 100)
	r.sendAt(t, 0, 5, 1)
	r.sched.Run()
	r.net.CheckInvariants() // clean after drain

	// A packet allocated but never handed to the network is a leak: it is
	// live yet owned by no pipe.
	_ = r.net.AllocPacket()
	defer func() {
		rec := recover()
		if rec == nil {
			t.Fatal("CheckInvariants did not panic on a leaked packet")
		}
		msg, _ := rec.(string)
		if !strings.Contains(msg, "packet conservation") {
			t.Errorf("panic %q does not name packet conservation", msg)
		}
	}()
	r.net.CheckInvariants()
}

func TestQueueBoundsCheck(t *testing.T) {
	q := NewQueue(QueueConfig{CapPackets: 2})
	if msg := q.checkBounds(); msg != "" {
		t.Errorf("empty queue flagged: %s", msg)
	}
	q.Enqueue(&Packet{Size: 100})
	q.Enqueue(&Packet{Size: 100})
	if msg := q.checkBounds(); msg != "" {
		t.Errorf("full-but-legal queue flagged: %s", msg)
	}
	// Corrupt the byte accounting the way a miscounted dequeue would.
	q.bytes = -100
	if msg := q.checkBounds(); msg == "" {
		t.Error("negative byte count not flagged")
	}
}

func TestScheduledInvariantChecksCoverFaultyRun(t *testing.T) {
	r := newFaultRigOn(t, armed(), 50)
	// Every injector at once, checked every 20 µs: the checker must stay
	// silent through queue drains, held reorder deliveries, and clones.
	r.ab.InjectGilbertElliott(GEConfig{PGoodBad: 0.05, PBadGood: 0.1, LossBad: 0.8}, sim.NewRand(5))
	r.ab.InjectReorder(0.3, 100*time.Microsecond, sim.NewRand(6))
	r.ab.InjectDuplicate(0.2, sim.NewRand(7))
	if err := r.ab.ScheduleFlaps(FlapConfig{
		FirstDownAt: sim.At(200 * time.Microsecond),
		DownFor:     100 * time.Microsecond,
		UpFor:       200 * time.Microsecond,
		Count:       3,
	}); err != nil {
		t.Fatal(err)
	}
	for burst := 0; burst < 10; burst++ {
		r.sendAt(t, time.Duration(burst)*100*time.Microsecond, 30, uint64(1+burst*100))
	}
	r.net.ScheduleInvariantChecks(20 * time.Microsecond)
	r.finish(t)
	if st := r.ab.Stats(); st.BurstLossDrops == 0 || st.FlapDrops == 0 || st.Reordered == 0 || st.Duplicated == 0 {
		t.Errorf("chaos run did not exercise every injector: %+v", st)
	}
}

// TestCheckInvariantsCatchesWireCorruption: no pipe keeps a record of its
// packets on the wire — the checker finds them through the events that
// carry them — so a packet an event carries is still accounted for: one
// released to the pool while its arrival is pending, or armed twice, makes
// CheckInvariants panic and say which.
func TestCheckInvariantsCatchesWireCorruption(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(r *faultRig, pkt *Packet)
		want    []string
	}{
		{"released while its arrival is pending", func(r *faultRig, pkt *Packet) { r.net.ReleasePacket(pkt) },
			[]string{"a->b: a pending event carries a packet already back in the pool", "held twice, or after release", "inflight=1"}},
		{"armed twice", func(r *faultRig, pkt *Packet) { r.ab.arrive(pkt, r.sched.Now().Add(r.ab.delay)) },
			[]string{"2 pooled packets outstanding but 3 held by pipes (1 held twice", "inflight=2"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newFaultRig(t, 100)
			r.sendAt(t, 0, 2, 1)
			// The first is on the wire (12 µs to serialize, 10 to arrive),
			// the second serializing.
			r.sched.RunUntil(sim.At(15 * time.Microsecond))
			var onWire *Packet
			tx := 0
			r.net.walkWire(func(pkt *Packet, role wireRole) {
				if role.tx {
					tx++
				} else {
					onWire = pkt
				}
			})
			if onWire == nil || tx != 1 {
				t.Fatalf("found packet %v on the wire and %d serializing, want one of each", onWire, tx)
			}
			r.net.CheckInvariants() // clean
			tc.corrupt(r, onWire)
			defer func() {
				msg, _ := recover().(string)
				for _, want := range tc.want {
					if !strings.Contains(msg, want) {
						t.Errorf("CheckInvariants panicked with %q, want it to contain %q", msg, want)
					}
				}
			}()
			r.net.CheckInvariants()
		})
	}
}

// TestCheckInvariantsAllocatesNothing: the chaos sweeps check every few
// simulated milliseconds, so a check over packets queued, serializing and
// on the wire must not allocate once it has run.
func TestCheckInvariantsAllocatesNothing(t *testing.T) {
	r := newFaultRig(t, 100)
	r.ab.InjectReorder(0.5, 50*time.Microsecond, sim.NewRand(1))
	r.sendAt(t, 0, 40, 1)
	r.sched.RunUntil(sim.At(100 * time.Microsecond))
	r.net.CheckInvariants()
	if n := r.ab.Queue().Len(); n == 0 {
		t.Fatal("nothing queued: the check would not see every kind of holder")
	}
	if allocs := testing.AllocsPerRun(100, r.net.CheckInvariants); allocs != 0 {
		t.Errorf("CheckInvariants allocates %.2f times per call, want 0", allocs)
	}
	r.finish(t)
}
