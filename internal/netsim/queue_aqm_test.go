package netsim

import (
	"math/rand"
	"testing"
	"time"

	"tcptrim/internal/aqm"
	"tcptrim/internal/sim"
)

// TestQueueInterleavedCompactionProperty interleaves bursty enqueues and
// dequeues against a model FIFO so the dead-prefix compaction (head > 64)
// fires repeatedly, and checks FIFO order, byte accounting, and Len()
// after every operation.
func TestQueueInterleavedCompactionProperty(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		q := NewQueue(QueueConfig{})
		drv := rand.New(rand.NewSource(seed))
		var model []*Packet
		modelBytes := 0
		id := uint64(0)
		maxHead := 0
		for op := 0; op < 6000; op++ {
			// Bias phases so the queue alternately grows well past 128 and
			// drains well past 64 pops, crossing the compaction trigger.
			growing := (op/500)%2 == 0
			enq := drv.Intn(10) < 7
			if !growing {
				enq = drv.Intn(10) < 3
			}
			if enq {
				p := dataPkt(id, 40+drv.Intn(1461))
				id++
				if !q.Enqueue(p) {
					t.Fatalf("seed %d op %d: unlimited queue rejected packet", seed, op)
				}
				model = append(model, p)
				modelBytes += p.Size
			} else if len(model) > 0 {
				want := model[0]
				model = model[1:]
				modelBytes -= want.Size
				got := q.Dequeue()
				if got != want {
					t.Fatalf("seed %d op %d: dequeue = %v, want id %d", seed, op, got, want.ID)
				}
			} else if q.Dequeue() != nil {
				t.Fatalf("seed %d op %d: dequeue from empty returned a packet", seed, op)
			}
			if q.Len() != len(model) {
				t.Fatalf("seed %d op %d: Len = %d, model %d", seed, op, q.Len(), len(model))
			}
			if q.Bytes() != modelBytes {
				t.Fatalf("seed %d op %d: Bytes = %d, model %d", seed, op, q.Bytes(), modelBytes)
			}
			if q.main.head > maxHead {
				maxHead = q.main.head
			}
		}
		if maxHead <= 64 {
			t.Fatalf("seed %d: driver never pushed head past the compaction trigger (max %d)", seed, maxHead)
		}
		for len(model) > 0 {
			if got := q.Dequeue(); got != model[0] {
				t.Fatalf("seed %d drain: got %v, want id %d", seed, got, model[0].ID)
			}
			model = model[1:]
		}
		if q.Dequeue() != nil || q.Bytes() != 0 {
			t.Fatalf("seed %d: queue not empty after drain", seed)
		}
	}
}

// TestQueueFavouredBandCompaction runs the same churn through the
// favoured band: under FavourQueue every unique-flow packet is favoured,
// so the priority band's own compaction path gets the traffic.
func TestQueueFavouredBandCompaction(t *testing.T) {
	q := NewQueue(QueueConfig{AQM: aqm.Config{Kind: aqm.FavourQueue}})
	drv := rand.New(rand.NewSource(5))
	var model []*Packet
	id := uint64(0)
	maxFavHead := 0
	for op := 0; op < 6000; op++ {
		growing := (op/500)%2 == 0
		enq := drv.Intn(10) < 7
		if !growing {
			enq = drv.Intn(10) < 3
		}
		if enq {
			p := dataPkt(id, 1500)
			p.Flow = FlowID(id) // unique flow: always favoured
			id++
			q.Enqueue(p)
			model = append(model, p)
		} else if len(model) > 0 {
			want := model[0]
			model = model[1:]
			if got := q.Dequeue(); got != want {
				t.Fatalf("op %d: dequeue = %v, want id %d", op, got, want.ID)
			}
		}
		if q.fav.head > maxFavHead {
			maxFavHead = q.fav.head
		}
	}
	if maxFavHead <= 64 {
		t.Fatalf("favoured band never crossed the compaction trigger (max head %d)", maxFavHead)
	}
	if got := q.AQMStats().Favoured; got != int(id) {
		t.Fatalf("Favoured = %d, want %d (every unique-flow packet)", got, id)
	}
}

// TestQueueFavouredBandOrdering pins the two-band service order: favoured
// packets depart before the unfavoured backlog but keep FIFO order among
// themselves.
func TestQueueFavouredBandOrdering(t *testing.T) {
	q := NewQueue(QueueConfig{CapPackets: 100, AQM: aqm.Config{Kind: aqm.FavourQueue}})
	// Flow 1 builds a standing queue; its later packets find a sibling
	// queued and are not favoured.
	for i := uint64(0); i < 4; i++ {
		p := dataPkt(i, 1500)
		p.Flow = 1
		q.Enqueue(p)
	}
	// Two starting flows: each first packet is favoured.
	for i := uint64(10); i < 12; i++ {
		p := dataPkt(i, 1500)
		p.Flow = FlowID(i)
		q.Enqueue(p)
	}
	// First packet of flow 1 was favoured (empty queue), so service order
	// is 0 (favoured), 10, 11 (favoured), then the flow-1 backlog 1,2,3.
	want := []uint64{0, 10, 11, 1, 2, 3}
	for i, w := range want {
		p := q.Dequeue()
		if p == nil || p.ID != w {
			t.Fatalf("dequeue %d = %v, want id %d", i, p, w)
		}
	}
	if st := q.AQMStats(); st.Favoured != 3 {
		t.Fatalf("Favoured = %d, want 3", st.Favoured)
	}
}

// TestQueueHeadDropReleasedExactlyOnce drives CoDel into its dropping
// state on a hand-built queue and checks the pool-safety contract: every
// head-dropped packet goes through the drop handler exactly once and is
// never also returned from Dequeue.
func TestQueueHeadDropReleasedExactlyOnce(t *testing.T) {
	q := NewQueue(QueueConfig{CapPackets: 1000, AQM: aqm.Config{Kind: aqm.CoDel}})
	now := sim.Time(0)
	q.SetClock(func() sim.Time { return now })
	released := map[uint64]int{}
	q.SetDropHandler(func(p *Packet) { released[p.ID]++ })

	delivered := map[uint64]bool{}
	id := uint64(0)
	offered := 0
	// Saturate: 3 arrivals per service for 40 ms, 50 µs service clock, so
	// sojourn times sit far above the 100 µs target and drops must fire.
	for step := 0; step < 800; step++ {
		now = now.Add(50 * time.Microsecond)
		for i := 0; i < 3; i++ {
			if q.Enqueue(dataPkt(id, 1500)) {
				offered++
			}
			id++
		}
		if p := q.Dequeue(); p != nil {
			if delivered[p.ID] {
				t.Fatalf("packet %d delivered twice", p.ID)
			}
			delivered[p.ID] = true
			if released[p.ID] != 0 {
				t.Fatalf("packet %d both delivered and released", p.ID)
			}
		}
	}
	st := q.Stats()
	if st.HeadDrops == 0 {
		t.Fatal("scenario produced no CoDel head drops")
	}
	if st.HeadDrops != len(released) {
		t.Fatalf("HeadDrops = %d but %d distinct packets released", st.HeadDrops, len(released))
	}
	for pid, n := range released {
		if n != 1 {
			t.Fatalf("packet %d released %d times", pid, n)
		}
	}
	if st.HeadDrops != st.Dropped-st.TailDrops-st.EarlyDrops {
		t.Fatalf("drop split inconsistent: %+v", st)
	}
	if got := len(delivered) + len(released) + q.Len(); got != offered {
		t.Fatalf("conservation: delivered %d + released %d + queued %d != offered %d",
			len(delivered), len(released), q.Len(), offered)
	}
	if st.DroppedBytes != 1500*(st.Dropped) {
		t.Fatalf("DroppedBytes = %d, want %d", st.DroppedBytes, 1500*st.Dropped)
	}
}

// TestCoDelHeadDropsReturnToPool is the network-level pool invariant: an
// overloaded CoDel link drops from the head of the queue, and every such
// packet must land back on the free list (zero live packets at rest, and
// the full-state invariant check passes).
func TestCoDelHeadDropsReturnToPool(t *testing.T) {
	sched := sim.NewScheduler()
	net := NewNetwork(sched)
	a := net.AddHost("a")
	b := net.AddHost("b")
	ab, _ := net.Connect(a, b, LinkConfig{
		Rate:  100 * Mbps, // slow drain: 120 µs per packet, sojourn >> target
		Delay: 10 * time.Microsecond,
		Queue: QueueConfig{CapPackets: 400, AQM: aqm.Config{Kind: aqm.CoDel}},
	})
	b.SetHandler(func(*Packet) {})

	// Several spaced bursts keep the queue saturated across many CoDel
	// intervals.
	for burst := 0; burst < 10; burst++ {
		burst := burst
		sched.After(time.Duration(burst)*5*time.Millisecond, func() {
			for i := 0; i < 60; i++ {
				pkt := net.AllocPacket()
				pkt.Src, pkt.Dst = a.ID(), b.ID()
				pkt.Size = 1500
				a.Send(pkt)
			}
		})
	}
	sched.Run()

	st := ab.Queue().Stats()
	if st.HeadDrops == 0 {
		t.Fatalf("overloaded CoDel produced no head drops: %+v", st)
	}
	net.CheckInvariants()
	if live := net.LivePackets(); live != 0 {
		t.Fatalf("%d live packets at rest (head drops leaked?)", live)
	}
	ps := net.PoolStats()
	if ps.Releases != ps.Allocs+ps.Reuses {
		t.Fatalf("pool ledger: %d releases vs %d allocs + %d reuses", ps.Releases, ps.Allocs, ps.Reuses)
	}
}
