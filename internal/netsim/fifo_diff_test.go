package netsim

// The queue bands restart at the front of their arrays when they drain.
// These tests hold them, and a pipe's wire, against a transcription of the
// FIFO code that crawled on until a compaction (the storage only:
// admission, verdicts and counters are the live code's), and pin the
// footprint the restart buys.

import (
	"math/rand"
	"testing"
	"time"

	"tcptrim/internal/aqm"
	"tcptrim/internal/sim"
)

// crawlFIFO is the FIFO storage as it was before the restart: append at the
// tail, nil out and step over the head, compact once a dead prefix of more
// than limit slots is at least half the array.
type crawlFIFO struct {
	pkts  []*Packet
	times []sim.Time
	head  int
	limit int

	compactions int
}

func (f *crawlFIFO) len() int { return len(f.pkts) - f.head }

func (f *crawlFIFO) push(p *Packet, at sim.Time) {
	f.pkts = append(f.pkts, p)
	f.times = append(f.times, at)
}

func (f *crawlFIFO) pop() (*Packet, sim.Time) {
	p, at := f.pkts[f.head], f.times[f.head]
	f.pkts[f.head] = nil
	f.head++
	if f.head > f.limit && f.head*2 >= len(f.pkts) {
		n := copy(f.pkts, f.pkts[f.head:])
		copy(f.times, f.times[f.head:])
		f.pkts = f.pkts[:n]
		f.times = f.times[:n]
		f.head = 0
		f.compactions++
	}
	return p, at
}

// crawlQueue is Queue as it was: the same discipline calls, verdict
// handling and counters, over two crawlFIFO bands.
type crawlQueue struct {
	disc   aqm.Discipline
	now    func() sim.Time
	dropFn func(*Packet)
	main   crawlFIFO
	fav    crawlFIFO
	bytes  int
	stats  QueueStats
}

func newCrawlQueue(cfg QueueConfig, now func() sim.Time, dropFn func(*Packet)) *crawlQueue {
	return &crawlQueue{
		disc: cfg.AQM.MustBuild(cfg.limits()), now: now, dropFn: dropFn,
		main: crawlFIFO{limit: 64}, fav: crawlFIFO{limit: 64},
	}
}

func (q *crawlQueue) Len() int { return q.main.len() + q.fav.len() }

func (q *crawlQueue) Enqueue(p *Packet) bool {
	now := q.now()
	v := q.disc.OnEnqueue(aqmPkt(p), aqm.State{Len: q.Len(), Bytes: q.bytes}, now)
	if v.Drop {
		q.stats.Dropped++
		q.stats.DroppedBytes += p.Size
		if v.Early {
			q.stats.EarlyDrops++
		} else {
			q.stats.TailDrops++
		}
		return false
	}
	if v.Mark && p.ECT {
		p.CE = true
		q.stats.Marked++
	}
	if v.Favour {
		q.fav.push(p, now)
	} else {
		q.main.push(p, now)
	}
	q.bytes += p.Size
	q.stats.Enqueued++
	if l := q.Len(); l > q.stats.MaxLen {
		q.stats.MaxLen = l
	}
	if q.bytes > q.stats.MaxBytes {
		q.stats.MaxBytes = q.bytes
	}
	return true
}

func (q *crawlQueue) pop() (*Packet, sim.Time) {
	band := &q.fav
	if band.len() == 0 {
		band = &q.main
	}
	if band.len() == 0 {
		return nil, 0
	}
	p, at := band.pop()
	q.bytes -= p.Size
	return p, at
}

func (q *crawlQueue) Dequeue() *Packet {
	for {
		p, enq := q.pop()
		if p == nil {
			return nil
		}
		now := q.now()
		v := q.disc.OnDequeue(aqmPkt(p), now.Sub(enq), aqm.State{Len: q.Len(), Bytes: q.bytes}, now)
		q.disc.OnRemove(aqmPkt(p))
		if v.Drop {
			q.stats.Dropped++
			q.stats.DroppedBytes += p.Size
			q.stats.HeadDrops++
			q.dropFn(p)
			continue
		}
		if v.Mark && p.ECT {
			p.CE = true
			q.stats.Marked++
		}
		return p
	}
}

func (q *crawlQueue) DrainOne() *Packet {
	p, _ := q.pop()
	if p == nil {
		return nil
	}
	q.disc.OnRemove(aqmPkt(p))
	return p
}

// TestQueueMatchesCrawlAndCompact runs random enqueue/dequeue/drain
// programs — bursts long enough to compact, lulls that drain — on a Queue
// and on the transcription: the same packets leave in the same order with
// the same marks, through the same door (returned, head-dropped, refused),
// and Len/Bytes/Stats agree after every operation.
func TestQueueMatchesCrawlAndCompact(t *testing.T) {
	cfgs := map[string]QueueConfig{
		"droptail": {CapPackets: 150, ECNThresholdPackets: 20},
		"bytes":    {CapBytes: 90_000, ECNThresholdBytes: 30_000},
		"red":      {CapPackets: 150, AQM: aqm.Config{Kind: aqm.RED, RED: aqm.REDConfig{Seed: 1}}},
		"codel":    {CapPackets: 150, AQM: aqm.Config{Kind: aqm.CoDel}},
		"favour":   {CapPackets: 150, ECNThresholdPackets: 20, AQM: aqm.Config{Kind: aqm.FavourQueue}},
	}
	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			headDrops, compactions := 0, 0
			for seed := int64(1); seed <= 20; seed++ {
				rng := rand.New(rand.NewSource(seed))
				now := sim.Time(0)
				clock := func() sim.Time { return now }
				var gotDrops, wantDrops []uint64
				q := NewQueue(cfg)
				q.SetClock(clock)
				q.SetDropHandler(func(p *Packet) { gotDrops = append(gotDrops, p.ID) })
				ref := newCrawlQueue(cfg, clock, func(p *Packet) { wantDrops = append(wantDrops, p.ID) })
				id := uint64(0)
				same := func(op string, got, want *Packet) {
					t.Helper()
					switch {
					case (got == nil) != (want == nil):
						t.Fatalf("seed %d, %s: got %v, crawl-and-compact %v", seed, op, got, want)
					case got != nil && (got.ID != want.ID || got.CE != want.CE):
						t.Fatalf("seed %d, %s: got id %d CE=%v, crawl-and-compact id %d CE=%v", seed, op, got.ID, got.CE, want.ID, want.CE)
					}
					if q.Len() != ref.Len() || q.Bytes() != ref.bytes || q.Stats() != ref.stats {
						t.Fatalf("seed %d, %s: Len/Bytes/Stats %d/%d/%+v, crawl-and-compact %d/%d/%+v",
							seed, op, q.Len(), q.Bytes(), q.Stats(), ref.Len(), ref.bytes, ref.stats)
					}
					if len(gotDrops) != len(wantDrops) || (len(gotDrops) > 0 && gotDrops[len(gotDrops)-1] != wantDrops[len(wantDrops)-1]) {
						t.Fatalf("seed %d, %s: head drops %v, crawl-and-compact %v", seed, op, gotDrops, wantDrops)
					}
				}
				for step := 0; step < 4000; step++ {
					// Phases of a few hundred steps lean one way: the queue
					// fills past the compaction trigger, then drains.
					enqueueOf10 := 3
					if (step/300)%2 == 0 {
						enqueueOf10 = 6
					}
					now = now.Add(time.Duration(rng.Intn(400)) * time.Microsecond)
					switch {
					case rng.Intn(10) < enqueueOf10:
						id++
						a := &Packet{ID: id, Flow: FlowID(rng.Intn(12)), Size: 40 + rng.Intn(1461), ECT: rng.Intn(2) == 0}
						b := *a
						if got, want := q.Enqueue(a), ref.Enqueue(&b); got != want {
							t.Fatalf("seed %d: Enqueue(%d) = %v, crawl-and-compact %v", seed, id, got, want)
						}
						same("Enqueue", nil, nil)
					case rng.Intn(8) == 0:
						same("DrainOne", q.DrainOne(), ref.DrainOne())
					default:
						same("Dequeue", q.Dequeue(), ref.Dequeue())
					}
				}
				for q.Len() > 0 || ref.Len() > 0 {
					same("final Dequeue", q.Dequeue(), ref.Dequeue())
				}
				if q.main.head != 0 || q.fav.head != 0 || len(q.main.slots) != 0 || len(q.fav.slots) != 0 {
					t.Errorf("seed %d: a drained queue did not restart at the front: head=%d/%d len=%d/%d", seed, q.main.head, q.fav.head, len(q.main.slots), len(q.fav.slots))
				}
				headDrops += q.Stats().HeadDrops
				compactions += ref.main.compactions
			}
			if compactions == 0 {
				t.Error("no program made the transcription compact: the bursts are too short to test that path")
			}
			if name == "codel" && headDrops == 0 {
				t.Error("no CoDel head drop in any program: the sojourn times are too short to test the drop path")
			}
		})
	}
}

// TestFlightFIFOMatchesCrawlAndCompact shadows a faulted pipe's wire with
// the transcription: every packet onTxDone puts on the wire is pushed to
// the shadow with its arrival instant (a duplicate right behind its
// original), every arrival pops it, and the packet the arrival event
// carries must be the shadow's head, at the shadow's instant — under
// plain, jittered, reordered, duplicated and flapped links, with bursts
// deep enough to compact and gaps that drain. A packet a reorder injector
// holds back arrives outside that order and is checked off on its own.
// The wire itself is the set of pending arrival events: the run goes one
// event at a time, the invariant walk tells which transmit-done or arrival
// fired, and after every event it must count as many arrivals pending as
// the shadow expects.
func TestFlightFIFOMatchesCrawlAndCompact(t *testing.T) {
	faults := map[string]func(r *faultRig, rng *rand.Rand){
		"plain":      func(*faultRig, *rand.Rand) {},
		"jittered":   func(r *faultRig, rng *rand.Rand) { r.ab.InjectJitter(300*time.Microsecond, rng) },
		"reordered":  func(r *faultRig, rng *rand.Rand) { r.ab.InjectReorder(0.2, 200*time.Microsecond, rng) },
		"duplicated": func(r *faultRig, rng *rand.Rand) { r.ab.InjectDuplicate(0.3, rng) },
		"flapped": func(r *faultRig, _ *rand.Rand) {
			err := r.ab.ScheduleFlaps(FlapConfig{FirstDownAt: sim.At(2 * time.Millisecond), DownFor: 700 * time.Microsecond, UpFor: 3 * time.Millisecond, Count: 6})
			if err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, inject := range faults {
		t.Run(name, func(t *testing.T) {
			r := newFaultRigOn(t, armed(), 400)
			// A long wire holds many packets at once: 40 B at 1 Gbps
			// serializes in 320 ns, the cable takes 100 µs.
			r.ab.delay = 100 * time.Microsecond
			inject(r, rand.New(rand.NewSource(7)))
			shadow := crawlFIFO{limit: 32}
			held := map[uint64]bool{} // held back by the reorder injector, not yet arrived
			p := r.ab
			// The pipe's pending events as the walk sees them: the packet
			// serializing and the packets arriving, with their IDs (a
			// delivered packet is zeroed by its release).
			type pending struct {
				tx       *Packet
				txID     uint64
				arriving map[*Packet]uint64
			}
			walk := func(w *pending) {
				w.tx = nil
				clear(w.arriving)
				r.net.walkWire(func(pkt *Packet, role wireRole) {
					switch {
					case role.pipe != p:
					case role.tx:
						w.tx, w.txID = pkt, pkt.ID
					default:
						w.arriving[pkt] = pkt.ID
					}
				})
			}
			rng := rand.New(rand.NewSource(11))
			at, id := time.Duration(0), uint64(0)
			for burst := 0; burst < 60; burst++ {
				n := 1 + rng.Intn(3)
				if burst%4 == 0 {
					n = 150 + rng.Intn(150) // more than the wire drains before the next
				}
				for i := 0; i < n; i++ {
					id++
					r.sendSizedAt(t, at, 40, id)
				}
				at += time.Duration(50+rng.Intn(600)) * time.Microsecond
			}
			pops, deepest := 0, 0
			before, after := &pending{arriving: map[*Packet]uint64{}}, &pending{arriving: map[*Packet]uint64{}}
			walk(before)
			for event := 0; ; event++ {
				stats := p.stats
				if !r.sched.Step() {
					break
				}
				walk(after)
				if before.tx != nil && after.tx != before.tx {
					// Its transmit-done fired: the next packet (if any) is
					// a different one.
					switch st := p.stats; {
					case st.FlapDrops > stats.FlapDrops: // died serializing
					case st.Reordered > stats.Reordered:
						held[before.txID] = true
					default:
						for i := 0; i <= st.Duplicated-stats.Duplicated; i++ {
							shadow.push(&Packet{ID: before.txID}, p.lastArrival)
						}
					}
					deepest = max(deepest, shadow.len())
				}
				for pkt, id := range before.arriving {
					if _, ok := after.arriving[pkt]; ok {
						continue
					}
					// Its arrival fired.
					if now := r.sched.Now(); held[id] {
						delete(held, id)
					} else if want, at := shadow.pop(); id != want.ID || now != at {
						t.Fatalf("arrival %d: the event carries packet %d at %v, crawl-and-compact %d at %v", pops, id, now, want.ID, at)
					}
					pops++
				}
				if w := len(after.arriving); w != shadow.len()+len(held) {
					t.Fatalf("event %d, arrival %d: %d arrivals pending, crawl-and-compact %d plus %d held back", event, pops, w, shadow.len(), len(held))
				}
				before, after = after, before
			}
			onWire := len(before.arriving)
			r.finish(t)
			st := p.Stats()
			if pops == 0 || onWire != 0 || shadow.len() != 0 || len(held) != 0 {
				t.Errorf("after the run: %d arrivals, %d on the wire, shadow %d, %d held back", pops, onWire, shadow.len(), len(held))
			}
			if shadow.compactions == 0 {
				t.Errorf("the wire held at most %d packets and the transcription never compacted: that path was not reached", deepest)
			}
			if delivered := len(r.got); delivered+st.InjectedDrops()+p.Queue().Stats().Dropped != int(id)+st.Duplicated {
				t.Errorf("%d sent + %d duplicated != %d delivered + %d injected drops + %d queue drops",
					id, st.Duplicated, delivered, st.InjectedDrops(), p.Queue().Stats().Dropped)
			}
			switch {
			case name == "reordered" && st.Reordered == 0, name == "duplicated" && st.Duplicated == 0, name == "flapped" && st.FlapDrops == 0:
				t.Errorf("the %s link injected nothing: %+v", name, st)
			}
		})
	}
}

// TestIdleFIFOsStayInOneCacheLine: a link that carries one packet at a
// time keeps reusing the first slots of its queue arrays. Before the
// restart each of them crawled to 64+ slots between compactions.
func TestIdleFIFOsStayInOneCacheLine(t *testing.T) {
	q := NewQueue(QueueConfig{CapPackets: 100})
	pkt := dataPkt(1, 1500)
	for i := 0; i < 10_000; i++ {
		if !q.Enqueue(pkt) || q.Dequeue() != pkt {
			t.Fatal("enqueue/dequeue lost the packet")
		}
	}
	if cap(q.main.slots) > 8 || cap(q.fav.slots) > 8 {
		t.Errorf("10000 alternating enqueue/dequeue grew the queue arrays to %d/%d slots, want at most 8", cap(q.main.slots), cap(q.fav.slots))
	}

	r := newFaultRig(t, 100)
	for i := 0; i < 10_000; i++ {
		// Two at once: the second waits in the egress queue for the first.
		r.send(1500, uint64(2*i))
		r.send(1500, uint64(2*i+1))
		r.sched.Run()
	}
	if len(r.got) != 20_000 {
		t.Fatalf("delivered %d of 20000", len(r.got))
	}
	pq := r.ab.Queue()
	if cap(pq.main.slots) > 8 || cap(pq.fav.slots) > 8 {
		t.Errorf("10000 send/deliver rounds grew the pipe's queue arrays to %d/%d slots, want at most 8",
			cap(pq.main.slots), cap(pq.fav.slots))
	}
}
