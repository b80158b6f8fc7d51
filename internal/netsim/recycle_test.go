package netsim

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"tcptrim/internal/aqm"
	"tcptrim/internal/sim"
)

// A recycled network (Recycle) must run exactly as a fresh one does: the
// storage it inherits changes where packets and queued entries live, never
// what happens to them.

// recycleDisciplines are the queue disciplines the recycling tests cover:
// drop-tail, RED's early drops, and FavourQueue's favoured band.
var recycleDisciplines = []aqm.Config{
	{Kind: aqm.DropTail},
	{Kind: aqm.RED, RED: aqm.REDConfig{Seed: 7}},
	{Kind: aqm.FavourQueue},
}

// recycleLink is a star cable whose queues overflow under the bursts of
// driveStar, mark with ECN, and hold both bands under FavourQueue.
func recycleLink(disc aqm.Config) LinkConfig {
	return LinkConfig{Rate: Gbps, Delay: 5 * time.Microsecond,
		Queue: QueueConfig{CapPackets: 12, ECNThresholdPackets: 4, AQM: disc}}
}

// starRun is what one run of driveStar leaves to compare.
type starRun struct {
	log      []string // every delivery, in order
	queues   []QueueStats
	favoured int
	stats    NetworkStats
	pool     PoolStats
	live     int
}

// driveStar arms traffic that queues, drops and carries SACK blocks on a
// star built by star(sched, 4, …): each sender bursts data at the front
// end twice, and the front end answers every segment with an ACK carrying
// zero to three SACK blocks.
func driveStar(sched *sim.Scheduler, net *Network, senders []*Host, fe *Host, log *[]string) {
	fe.SetHandler(func(p *Packet) {
		*log = append(*log, fmt.Sprintf("%v fe flow=%d seq=%d ce=%v", sched.Now(), p.Flow, p.Seq, p.CE))
		ack := net.AllocPacket()
		ack.Flow, ack.Src, ack.Dst = p.Flow, fe.ID(), p.Src
		ack.Size, ack.IsAck, ack.Ack, ack.ECE = AckSize, true, p.Seq+int64(p.Payload), p.CE
		for b := int64(0); b < p.Seq/MSS%(MaxSackBlocks+1); b++ {
			ack.Sack = append(ack.Sack, SackBlock{Start: p.Seq + (b+2)*MSS, End: p.Seq + (b+3)*MSS})
		}
		fe.Send(ack)
	})
	for i, s := range senders {
		s.SetHandler(func(p *Packet) {
			*log = append(*log, fmt.Sprintf("%v %s ack=%d sack=%v ece=%v", sched.Now(), s.Name(), p.Ack, p.Sack, p.ECE))
		})
		for wave, burst := range []int{20 + 6*i, 8 + 3*i} {
			sched.At(sim.At(time.Duration(3*i+400*wave)*time.Microsecond), func() {
				for k := 0; k < burst; k++ {
					p := net.AllocPacket()
					p.ID, p.Flow, p.Src, p.Dst = uint64(k), FlowID(i+1), s.ID(), fe.ID()
					p.Seq, p.Payload, p.Size, p.ECT = int64(wave*1000+k)*MSS, MSS, MSS+HeaderSize, true
					s.Send(p)
				}
			})
		}
	}
}

// runStar builds a star on sched, recycles old into it (nil = none),
// drives it to the end and returns what it did, and its network.
func runStar(sched *sim.Scheduler, disc aqm.Config, old *Network) (starRun, *Network) {
	net, senders, fe := star(sched, 4, recycleLink(disc))
	net.Recycle(old)
	net.CheckInvariants()
	var r starRun
	driveStar(sched, net, senders, fe, &r.log)
	sched.Run()
	net.CheckInvariants()
	for _, pipes := range net.out {
		for _, p := range pipes {
			r.queues = append(r.queues, p.queue.Stats())
			r.favoured += p.queue.AQMStats().Favoured
		}
	}
	r.stats, r.pool, r.live = net.Stats(), net.PoolStats(), net.LivePackets()
	return r, net
}

// cutStar runs a star on sched until mid-traffic, leaving packets queued,
// serializing and on the wire, and returns its network for recycling.
func cutStar(sched *sim.Scheduler, disc aqm.Config) *Network {
	net, senders, fe := star(sched, 4, recycleLink(disc))
	var log []string
	driveStar(sched, net, senders, fe, &log)
	sched.RunUntil(sim.At(60 * time.Microsecond))
	if net.LivePackets() == 0 {
		panic("cutStar left no packet in the network")
	}
	return net
}

// TestRecycleRunsAsFresh: a star that recycles a finished network, one cut
// mid-traffic, or a chain of recycled networks delivers the same packets
// in the same order with the same queue, network and pool counters as a
// star on a fresh network.
func TestRecycleRunsAsFresh(t *testing.T) {
	withInvariants(t)
	for _, disc := range recycleDisciplines {
		t.Run(disc.Kind.String(), func(t *testing.T) {
			want, _ := runStar(sim.NewScheduler(), disc, nil)
			if want.pool.Releases == 0 || want.live != 0 {
				t.Fatalf("fresh run: pool %+v, %d live", want.pool, want.live)
			}
			dropped := 0
			for _, q := range want.queues {
				dropped += q.Dropped
			}
			if dropped == 0 {
				t.Fatal("the traffic dropped nothing")
			}
			if disc.Kind == aqm.FavourQueue && want.favoured == 0 {
				t.Fatal("FavourQueue never used its favoured band")
			}
			sched := sim.NewScheduler()
			old := cutStar(sched, disc)
			for gen := 1; gen <= 3; gen++ {
				sched.Clear()
				var got starRun
				got, old = runStar(sched, disc, old)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("recycled generation %d differs from a fresh network:\n got %+v\nwant %+v",
						gen, got, want)
				}
			}
		})
	}
}

// TestRecycleLeavesNoWireIntoOld: Recycle reclaims the packets old left
// on the wire as well as its free ones, and after it no packet of n's
// slabs, and no slot of its bands, points into old's pipes.
func TestRecycleLeavesNoWireIntoOld(t *testing.T) {
	sched := sim.NewScheduler()
	old := cutStar(sched, aqm.Config{Kind: aqm.FavourQueue})
	sched.Clear()
	net, _, _ := star(sched, 4, recycleLink(aqm.Config{Kind: aqm.FavourQueue}))
	net.Recycle(old)
	if len(net.pool.free) <= old.LivePackets() {
		t.Fatalf("Recycle inherited %d packets, not the %d old left live and its free ones", len(net.pool.free), old.LivePackets())
	}
	for _, s := range net.pool.slabs {
		for i := range s {
			if w := s[i].wire; w != nil {
				t.Fatalf("an inherited packet still rides pipe %s->%s", w.from.Name(), w.to.Name())
			}
		}
	}
	bands := 0
	for _, pipes := range net.out {
		for _, p := range pipes {
			for _, b := range [...]*band{&p.queue.main, &p.queue.fav} {
				if cap(b.slots) > 0 {
					bands++
				}
				for _, e := range b.slots[:cap(b.slots)] {
					if e.pkt != nil {
						t.Fatal("an inherited band slot still holds a packet")
					}
				}
			}
		}
	}
	if bands == 0 {
		t.Fatal("Recycle inherited no band storage")
	}
}

// TestRecycleReleasesOldWorld: once recycled, the old network — its
// hosts, pipes and the packets it left on the wire — is garbage while the
// network that recycled it lives on. The finalizer sits on an object only
// a tap of old's hosts holds: one on old itself would never run, since
// old and its hosts point at each other and Go runs no finalizer on a
// cycle.
func TestRecycleReleasesOldWorld(t *testing.T) {
	sched := sim.NewScheduler()
	collected := make(chan struct{})
	func() {
		old := cutStar(sched, aqm.Config{Kind: aqm.FavourQueue})
		sentinel := new([2]*int) // holds a pointer: not a tiny allocation
		runtime.SetFinalizer(sentinel, func(*[2]*int) { close(collected) })
		old.Node(1).(*Host).SetTap(func(*Packet) { runtime.KeepAlive(sentinel) })
		sched.Clear()
		net, _, _ := star(sched, 4, recycleLink(aqm.Config{Kind: aqm.FavourQueue}))
		net.Recycle(old)
		t.Cleanup(func() { runtime.KeepAlive(net) })
	}()
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("the recycled network is still reachable")
}

// TestRecycleAfterAllocPanics: a network that has handed out a packet has
// a ledger of its own, and Recycle refuses it.
func TestRecycleAfterAllocPanics(t *testing.T) {
	sched := sim.NewScheduler()
	old := cutStar(sched, aqm.Config{})
	net, _, _ := star(sim.NewScheduler(), 4, recycleLink(aqm.Config{}))
	net.ReleasePacket(net.AllocPacket())
	defer func() {
		if recover() == nil {
			t.Fatal("Recycle after AllocPacket did not panic")
		}
	}()
	net.Recycle(old)
}

// TestRecycleNil: Recycle(nil) leaves the network as built.
func TestRecycleNil(t *testing.T) {
	net, _, _ := star(sim.NewScheduler(), 4, recycleLink(aqm.Config{}))
	net.Recycle(nil)
	if len(net.pool.free) != 0 || net.pool.slab != nil {
		t.Fatal("Recycle(nil) gave the network packets")
	}
}
