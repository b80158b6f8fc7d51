package netsim

import (
	"testing"
	"time"

	"tcptrim/internal/sim"
)

func poolPair(t *testing.T) (*sim.Scheduler, *Network, *Host, *Host) {
	t.Helper()
	sched := sim.NewScheduler()
	net := NewNetwork(sched)
	a := net.AddHost("a")
	b := net.AddHost("b")
	net.Connect(a, b, LinkConfig{Rate: Gbps, Delay: 10 * time.Microsecond, Queue: QueueConfig{CapPackets: 4}})
	return sched, net, a, b
}

func TestPacketPoolRecyclesDeliveredPackets(t *testing.T) {
	sched, net, a, b := poolPair(t)
	delivered := 0
	b.SetHandler(func(*Packet) { delivered++ })

	const rounds = 100
	for i := 0; i < rounds; i++ {
		pkt := net.AllocPacket()
		pkt.ID = uint64(i)
		pkt.Src, pkt.Dst = a.ID(), b.ID()
		pkt.Size = 1500
		a.Send(pkt)
		sched.RunUntil(sched.Now().Add(time.Millisecond))
	}
	if delivered != rounds {
		t.Fatalf("delivered %d, want %d", delivered, rounds)
	}
	st := net.PoolStats()
	if st.Allocs != 1 {
		t.Errorf("Allocs = %d, want 1 (every later packet recycled)", st.Allocs)
	}
	if st.Reuses != rounds-1 {
		t.Errorf("Reuses = %d, want %d", st.Reuses, rounds-1)
	}
}

func TestPacketPoolRecyclesDrops(t *testing.T) {
	// Packets that die in the queue (tail drop) or at routing must also
	// return to the pool, not just delivered ones.
	sched, net, a, b := poolPair(t)
	b.SetHandler(func(*Packet) {})

	// Burst far beyond the 4-packet queue so most are tail-dropped.
	const burst = 50
	sched.After(0, func() {
		for i := 0; i < burst; i++ {
			pkt := net.AllocPacket()
			pkt.Src, pkt.Dst = a.ID(), b.ID()
			pkt.Size = 1500
			a.Send(pkt)
		}
	})
	sched.Run()

	st := net.PoolStats()
	if got := st.Allocs + st.Reuses; got != burst {
		t.Fatalf("Allocs+Reuses = %d, want %d", got, burst)
	}
	// Every packet is dead now; a fresh alloc must come from the pool.
	before := net.PoolStats().Reuses
	net.AllocPacket()
	if net.PoolStats().Reuses != before+1 {
		t.Error("post-drain alloc did not reuse a pooled packet")
	}
}

func TestReleasePacketIgnoresHandBuilt(t *testing.T) {
	sched := sim.NewScheduler()
	net := NewNetwork(sched)
	hand := &Packet{ID: 1}
	net.ReleasePacket(hand)
	net.ReleasePacket(nil)
	if got := net.AllocPacket(); got == hand {
		t.Error("hand-built packet entered the pool")
	}
	if st := net.PoolStats(); st.Reuses != 0 {
		t.Errorf("Reuses = %d, want 0", st.Reuses)
	}
}

func TestReleasePacketDoubleReleaseSafe(t *testing.T) {
	sched := sim.NewSchedulerWith(sim.Config{}) // checks off, whatever the environment says
	net := NewNetwork(sched)
	p := net.AllocPacket()
	net.ReleasePacket(p)
	net.ReleasePacket(p) // second release must be a no-op
	x := net.AllocPacket()
	y := net.AllocPacket()
	if x == y {
		t.Fatal("double release duplicated a packet in the pool")
	}
}

func TestReleasePacketResetsStateKeepsSackCapacity(t *testing.T) {
	sched := sim.NewScheduler()
	net := NewNetwork(sched)
	p := net.AllocPacket()
	p.ID = 42
	p.IsAck = true
	p.Ack = 99
	p.Sack = append(p.Sack, SackBlock{Start: 1, End: 2}, SackBlock{Start: 3, End: 4})
	saved := cap(p.Sack)
	net.ReleasePacket(p)
	q := net.AllocPacket()
	if q != p {
		t.Fatal("expected the released packet back")
	}
	if q.ID != 0 || q.IsAck || q.Ack != 0 || len(q.Sack) != 0 {
		t.Errorf("recycled packet not reset: %+v", q)
	}
	if cap(q.Sack) != saved {
		t.Errorf("Sack capacity %d, want %d (backing array should survive recycling)", cap(q.Sack), saved)
	}
}

func TestPacketChurnSteadyStateZeroAlloc(t *testing.T) {
	// With the packet pool and the scheduler's lane rings and free events
	// warmed, a full send→serialize→propagate→deliver cycle allocates
	// nothing: on a clean pipe, where both events of a hop run on the FIFO
	// lanes, and on one that jitters, reorders and duplicates, where
	// arrivals go through the wheel carrying their packet. Every event
	// finds its pipe through the packet, so no pipe binds a callback.
	// Before the pool warms, fresh packets come sixteen to an allocation.
	net := NewNetwork(sim.NewScheduler())
	kept := make([]*Packet, 0, 16*101)
	fresh := func() {
		for i := 0; i < 16; i++ {
			kept = append(kept, net.AllocPacket())
		}
	}
	if allocs := testing.AllocsPerRun(100, fresh); allocs != 1 {
		t.Errorf("16 fresh packets from an empty pool cost %.2f allocations, want 1", allocs)
	}
	if st := net.PoolStats(); st.Allocs != len(kept) || st.Reuses != 0 {
		t.Errorf("pool stats %+v after %d fresh packets, want Allocs=%d", st, len(kept), len(kept))
	}

	churn := func(t *testing.T, inject func(*Pipe)) (PipeStats, sim.Stats, sim.Stats) {
		sched, net, a, b := poolPair(t)
		ab := net.PipesFrom(a.ID())[0]
		inject(ab)
		b.SetHandler(func(*Packet) {})
		send := func() {
			pkt := net.AllocPacket()
			pkt.Src, pkt.Dst = a.ID(), b.ID()
			pkt.Size = 1500
			a.Send(pkt)
			sched.RunUntil(sched.Now().Add(time.Millisecond))
		}
		for i := 0; i < 64; i++ {
			send()
		}
		before := sched.Stats()
		allocs := testing.AllocsPerRun(500, send)
		if allocs != 0 {
			t.Errorf("steady-state packet churn allocates %.2f allocs/op, want 0", allocs)
		}
		if live := net.LivePackets(); live != 0 {
			t.Errorf("%d pooled packets outstanding after the churn", live)
		}
		return ab.Stats(), before, sched.Stats()
	}
	t.Run("clean", func(t *testing.T) {
		_, before, st := churn(t, func(*Pipe) {})
		if st.Lanes != 2 || st.FiredLane-before.FiredLane != 2*501 || st.FiredWheel != before.FiredWheel {
			t.Errorf("warm pipe: stats %+v (before %+v), want both events of all 501 hops fired from 2 lanes", st, before)
		}
	})
	t.Run("jittered, reordering, duplicating", func(t *testing.T) {
		ps, before, st := churn(t, func(p *Pipe) {
			p.InjectJitter(3*time.Microsecond, sim.NewRand(1))
			p.InjectReorder(0.3, 20*time.Microsecond, sim.NewRand(2))
			p.InjectDuplicate(0.3, sim.NewRand(3))
		})
		if ps.Reordered < 100 || ps.Duplicated < 100 || st.FiredWheel-before.FiredWheel < 501 {
			t.Errorf("pipe stats %+v, scheduler %+v (before %+v): want reordering, duplication and wheel arrivals throughout", ps, st, before)
		}
	})
}
