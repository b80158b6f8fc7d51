package main

import (
	"fmt"
	"math/rand"
	"time"

	"tcptrim"
	"tcptrim/internal/aqm"
	"tcptrim/internal/netsim"
	"tcptrim/internal/sim"
)

// driveSim times the scheduler alone: dispatch with 10k live events at
// spread-out delays, dispatch when 64 events share every ~1 µs wheel
// slot (the in-slot list scan ROADMAP item 1 flags), and Timer.Reset.
func driveSim(_ runConfig, out map[string]float64) error {
	const horizon = 20 * time.Millisecond

	// chains arms n self-re-arming events; event i first fires at
	// first(i) and re-arms after next(i, k) on its k-th firing.
	chains := func(n int, first func(i int) time.Duration, next func(i, k int) time.Duration) (*tcptrim.Scheduler, func()) {
		sched := tcptrim.NewScheduler()
		for i := 0; i < n; i++ {
			i, k := i, 0
			var fn func()
			fn = func() {
				k++
				sched.After(next(i, k), fn)
			}
			sched.After(first(i), fn)
		}
		return sched, func() { sched.RunUntil(tcptrim.Time(horizon)) }
	}

	rng := rand.New(rand.NewSource(1))
	delays := make([]time.Duration, 4096)
	for i := range delays {
		delays[i] = time.Duration(1+rng.Intn(200)) * time.Microsecond
	}
	var sched *tcptrim.Scheduler
	spread, err := fastest(layerReps, func() (func(), error) {
		var loop func()
		sched, loop = chains(10_000,
			func(i int) time.Duration { return delays[i%len(delays)] },
			func(i, k int) time.Duration { return delays[(i+k)%len(delays)] })
		return loop, nil
	})
	if err != nil {
		return err
	}
	fired := int(sched.Fired())
	out["sim.ns_per_event"] = spread.per(fired)
	out["sim.allocs_per_event"] = float64(spread.mallocs) / float64(fired)

	// 64 events per wheel slot: a slot is 1024 ns wide, the events sit
	// 16 ns apart and each re-arms exactly one slot later.
	sameSlot, err := fastest(layerReps, func() (func(), error) {
		var loop func()
		sched, loop = chains(64,
			func(i int) time.Duration { return time.Duration(1024 + 16*i) },
			func(int, int) time.Duration { return 1024 })
		return loop, nil
	})
	if err != nil {
		return err
	}
	out["sim.ns_per_event_same_slot"] = sameSlot.per(int(sched.Fired()))

	// RTO-like churn: push a live timer's deadline out.
	const resets = 2_000_000
	reset, err := fastest(layerReps, func() (func(), error) {
		sched := tcptrim.NewScheduler()
		timers := make([]sim.Timer, 10_000)
		for i := range timers {
			timers[i] = sched.After(time.Duration(1+i%8191)*time.Millisecond, func() {})
		}
		return func() {
			for i := 0; i < resets; i++ {
				timers[i%len(timers)].Reset(time.Duration(1+i%4096) * time.Millisecond)
			}
		}, nil
	})
	if err != nil {
		return err
	}
	out["sim.ns_per_timer_reset"] = reset.per(resets)
	return nil
}

// hopNet is two hosts joined by one cable.
type hopNet struct {
	sched *tcptrim.Scheduler
	net   *tcptrim.Network
	a, b  *netsim.Host
	ab    *netsim.Pipe
}

func newHopNet(queueCap int) *hopNet {
	h := &hopNet{sched: tcptrim.NewScheduler()}
	h.net = tcptrim.NewNetwork(h.sched)
	h.a, h.b = h.net.AddHost("a"), h.net.AddHost("b")
	h.ab, _ = h.net.Connect(h.a, h.b, tcptrim.LinkConfig{
		Rate: tcptrim.Gbps, Delay: 10 * time.Microsecond,
		Queue: tcptrim.QueueConfig{CapPackets: queueCap},
	})
	return h
}

// send hands one full-size packet from a to b.
func (h *hopNet) send() {
	p := h.a.AllocPacket()
	p.Src, p.Dst, p.Size, p.Payload = h.a.ID(), h.b.ID(), 1500, 1460
	h.a.Send(p)
}

// driveNetsim times one pipe hop (Send, serialize, deliver) on an idle
// link, behind a queue, and into a full queue.
func driveNetsim(_ runConfig, out map[string]float64) error {
	const hops = 400_000

	// burst packets are offered at once; the next burst follows when the
	// last packet of this one arrives. burst 1 keeps the link idle.
	hopRun := func(burst int) (*hopNet, cost, error) {
		var h *hopNet
		c, err := fastest(layerReps, func() (func(), error) {
			h = newHopNet(100)
			sent, got := 0, 0
			offer := func() {
				for i := 0; i < burst && sent < hops; i++ {
					sent++
					h.send()
				}
			}
			h.b.SetHandler(func(*netsim.Packet) {
				if got++; got%burst == 0 {
					offer()
				}
			})
			return func() { offer(); h.sched.Run() }, nil
		})
		if err == nil && h.ab.Stats().SentPackets != hops {
			err = fmt.Errorf("netsim: %d packets crossed the pipe, want %d", h.ab.Stats().SentPackets, hops)
		}
		return h, c, err
	}

	h, idle, err := hopRun(1)
	if err != nil {
		return err
	}
	out["netsim.ns_per_hop"] = idle.per(hops)
	out["netsim.events_per_hop"] = float64(h.sched.Fired()) / float64(h.ab.Stats().SentPackets)
	pool := h.net.PoolStats()
	out["netsim.pool_reuse_ratio"] = float64(pool.Reuses) / float64(pool.Reuses+pool.Allocs)

	if _, queued, err := hopRun(32); err != nil {
		return err
	} else {
		out["netsim.ns_per_hop_queued"] = queued.per(hops)
	}

	// A busy transmitter and a full 8-packet queue: every further Send
	// is a tail drop, and no event has to run.
	const drops = 1_000_000
	dropped, err := fastest(layerReps, func() (func(), error) {
		h := newHopNet(8)
		for i := 0; i < 9; i++ {
			h.send()
		}
		return func() {
			for i := 0; i < drops; i++ {
				h.send()
			}
			if got := h.ab.Queue().Stats().Dropped; got != drops {
				panic(fmt.Sprintf("netsim: %d tail drops, want %d", got, drops))
			}
		}, nil
	})
	if err != nil {
		return err
	}
	out["netsim.ns_per_drop"] = dropped.per(drops)
	return nil
}

// driveAQM times Enqueue+Dequeue through netsim.Queue under each
// discipline, at a standing depth where every policy is active.
func driveAQM(_ runConfig, out map[string]float64) error {
	const depth, ops = 30, 2_000_000
	discs := []struct {
		name string
		cfg  aqm.Config
	}{
		{"droptail", aqm.Config{Kind: aqm.DropTail}},
		{"red", aqm.Config{Kind: aqm.RED, RED: aqm.REDConfig{Seed: 1}}},
		{"codel", aqm.Config{Kind: aqm.CoDel}},
		{"favour", aqm.Config{Kind: aqm.FavourQueue}},
	}
	for _, d := range discs {
		c, err := fastest(layerReps, func() (func(), error) {
			q := netsim.NewQueue(tcptrim.QueueConfig{CapPackets: 100, ECNThresholdPackets: 20, AQM: d.cfg})
			now := tcptrim.Time(0)
			q.SetClock(func() tcptrim.Time { return now })
			q.SetDropHandler(func(*netsim.Packet) {})
			pkts := make([]*netsim.Packet, depth+1)
			for i := range pkts {
				pkts[i] = &netsim.Packet{ID: uint64(i), Flow: netsim.FlowID(i % 8), Size: 1500, Payload: 1460, ECT: true}
			}
			for _, p := range pkts[:depth] {
				now = now.Add(time.Microsecond)
				q.Enqueue(p)
			}
			return func() {
				spare := pkts[depth]
				for i := 0; i < ops; i++ {
					now = now.Add(10 * time.Microsecond)
					if !q.Enqueue(spare) {
						spare.CE = false
						continue
					}
					if p := q.Dequeue(); p != nil {
						p.CE = false
						spare = p
					} else {
						spare = pkts[0] // head drops drained the queue
					}
				}
			}, nil
		})
		if err != nil {
			return err
		}
		out["aqm.ns_per_pkt."+d.name] = c.per(ops)
	}
	return nil
}
