package netsim

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"tcptrim/internal/sim"
)

// faultRig is a two-host network whose a→b pipe the tests fault.
type faultRig struct {
	sched *sim.Scheduler
	net   *Network
	a, b  *Host
	ab    *Pipe
	got   []uint64 // IDs delivered to b, in arrival order
}

func newFaultRig(t *testing.T, queueCap int) *faultRig {
	t.Helper()
	return newFaultRigOn(t, sim.NewScheduler(), queueCap)
}

func newFaultRigOn(t *testing.T, sched *sim.Scheduler, queueCap int) *faultRig {
	t.Helper()
	net := NewNetwork(sched)
	r := &faultRig{sched: sched, net: net}
	r.a = net.AddHost("a")
	r.b = net.AddHost("b")
	r.ab, _ = net.Connect(r.a, r.b, LinkConfig{
		Rate:  Gbps,
		Delay: 10 * time.Microsecond,
		Queue: QueueConfig{CapPackets: queueCap},
	})
	r.b.SetHandler(func(p *Packet) { r.got = append(r.got, p.ID) })
	return r
}

// sendAt offers count pooled 1500-byte packets at the given instant.
func (r *faultRig) sendAt(t *testing.T, at time.Duration, count int, firstID uint64) {
	t.Helper()
	if _, err := r.sched.At(sim.At(at), func() {
		for i := 0; i < count; i++ {
			r.send(1500, firstID+uint64(i))
		}
	}); err != nil {
		t.Fatalf("schedule send at %v: %v", at, err)
	}
}

// sendSizedAt offers one pooled packet of the given size.
func (r *faultRig) sendSizedAt(t *testing.T, at time.Duration, size int, id uint64) {
	t.Helper()
	if _, err := r.sched.At(sim.At(at), func() { r.send(size, id) }); err != nil {
		t.Fatalf("schedule send at %v: %v", at, err)
	}
}

func (r *faultRig) send(size int, id uint64) {
	pkt := r.net.AllocPacket()
	pkt.ID = id
	pkt.Src, pkt.Dst = r.a.ID(), r.b.ID()
	pkt.Size = size
	r.a.Send(pkt)
}

// finish drains the scheduler and verifies the pool balanced out.
func (r *faultRig) finish(t *testing.T) {
	t.Helper()
	r.sched.Run()
	r.net.CheckInvariants()
	if live := r.net.LivePackets(); live != 0 {
		t.Fatalf("%d pooled packets leaked", live)
	}
}

// armed returns a scheduler with invariant checks armed.
func armed() *sim.Scheduler { return sim.NewSchedulerWith(sim.Config{Checks: true}) }

func TestGilbertElliottBurstyLossConserved(t *testing.T) {
	r := newFaultRigOn(t, armed(), 4000)
	// Always-lossy bad state, mean burst length 5 packets, ~33% of time bad.
	r.ab.InjectGilbertElliott(GEConfig{PGoodBad: 0.1, PBadGood: 0.2, LossBad: 1}, sim.NewRand(1))
	const n = 2000
	r.sendAt(t, 0, n, 1)
	r.finish(t)

	st := r.ab.Stats()
	if st.BurstLossDrops == 0 {
		t.Fatal("GE channel never dropped")
	}
	if len(r.got)+st.BurstLossDrops != n {
		t.Errorf("delivered %d + burst drops %d != offered %d", len(r.got), st.BurstLossDrops, n)
	}
	// A bursty channel must drop consecutive packets somewhere; an
	// independent Bernoulli channel at the same rate almost surely would
	// too, so check for a run of at least 3 — vanishingly unlikely unless
	// the state machine actually lingers in the bad state.
	delivered := make(map[uint64]bool, len(r.got))
	for _, id := range r.got {
		delivered[id] = true
	}
	run, maxRun := 0, 0
	for id := uint64(1); id <= n; id++ {
		if delivered[id] {
			run = 0
			continue
		}
		run++
		if run > maxRun {
			maxRun = run
		}
	}
	if maxRun < 3 {
		t.Errorf("longest loss burst = %d packets, want bursty (>= 3)", maxRun)
	}
}

func TestLinkFlapDrainsQueueAndBlackholes(t *testing.T) {
	r := newFaultRigOn(t, armed(), 100)
	// 40 packets at t=0: one serializes (12 µs at 1 Gbps), rest queue.
	r.sendAt(t, 0, 40, 1)
	// Down mid-burst: the queue drains to the pool, and the packet on the
	// wire is blackholed at its arrival event.
	if _, err := r.sched.At(sim.At(5*time.Microsecond), func() {
		if r.ab.Down() {
			t.Error("Down() true before flap")
		}
		r.ab.SetLinkDown(true)
	}); err != nil {
		t.Fatal(err)
	}
	// Offered while down: dropped at Send.
	r.sendAt(t, 50*time.Microsecond, 5, 100)
	// Back up; traffic flows again.
	if _, err := r.sched.At(sim.At(100*time.Microsecond), func() { r.ab.SetLinkDown(false) }); err != nil {
		t.Fatal(err)
	}
	r.sendAt(t, 150*time.Microsecond, 10, 200)
	r.finish(t)

	st := r.ab.Stats()
	if st.FlapDrops != 45 {
		t.Errorf("FlapDrops = %d, want 45 (39 queued + 1 in flight + 5 offered while down)", st.FlapDrops)
	}
	for _, id := range r.got {
		if id < 200 {
			t.Errorf("packet %d delivered through a dead link", id)
		}
	}
	if len(r.got) != 10 {
		t.Errorf("delivered %d packets after restore, want 10", len(r.got))
	}
}

func TestScheduleFlapsTogglesAndValidates(t *testing.T) {
	r := newFaultRigOn(t, armed(), 100)
	if err := r.ab.ScheduleFlaps(FlapConfig{DownFor: 0}); err == nil {
		t.Error("DownFor=0 accepted")
	}
	if err := r.ab.ScheduleFlaps(FlapConfig{DownFor: time.Millisecond, Count: 2}); err == nil {
		t.Error("Count>1 with UpFor=0 accepted")
	}
	cfg := FlapConfig{
		FirstDownAt: sim.At(time.Millisecond),
		DownFor:     time.Millisecond,
		UpFor:       2 * time.Millisecond,
		Count:       2,
	}
	if err := r.ab.ScheduleFlaps(cfg); err != nil {
		t.Fatal(err)
	}
	// Probe Down() in the middle of each expected phase:
	// down [1ms,2ms), up [2ms,4ms), down [4ms,5ms), up from 5ms.
	for _, probe := range []struct {
		at   time.Duration
		down bool
	}{
		{500 * time.Microsecond, false},
		{1500 * time.Microsecond, true},
		{3 * time.Millisecond, false},
		{4500 * time.Microsecond, true},
		{6 * time.Millisecond, false},
	} {
		probe := probe
		if _, err := r.sched.At(sim.At(probe.at), func() {
			if got := r.ab.Down(); got != probe.down {
				t.Errorf("Down() at %v = %v, want %v", probe.at, got, probe.down)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	r.finish(t)
}

func TestScheduleFlapsReplacesPendingSchedule(t *testing.T) {
	// A second ScheduleFlaps while the first edge is still pending must
	// re-slot the pipe's flap timer in place: only the new schedule runs.
	r := newFaultRigOn(t, armed(), 100)
	if err := r.ab.ScheduleFlaps(FlapConfig{
		FirstDownAt: sim.At(time.Millisecond),
		DownFor:     10 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	if err := r.ab.ScheduleFlaps(FlapConfig{
		FirstDownAt: sim.At(4 * time.Millisecond),
		DownFor:     time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	if err := r.ab.ScheduleFlaps(FlapConfig{FirstDownAt: sim.At(-time.Millisecond),
		DownFor: time.Millisecond}); err == nil {
		t.Error("FirstDownAt in the past accepted")
	}
	// Replaced schedule: the link must stay up through the old window and
	// flap down only during [4ms, 5ms).
	for _, probe := range []struct {
		at   time.Duration
		down bool
	}{
		{1500 * time.Microsecond, false},
		{3 * time.Millisecond, false},
		{4500 * time.Microsecond, true},
		{6 * time.Millisecond, false},
	} {
		probe := probe
		if _, err := r.sched.At(sim.At(probe.at), func() {
			if got := r.ab.Down(); got != probe.down {
				t.Errorf("Down() at %v = %v, want %v", probe.at, got, probe.down)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	r.finish(t)
}

func TestReorderDeliversEverythingOutOfOrder(t *testing.T) {
	r := newFaultRigOn(t, armed(), 4000)
	// Every packet is held back up to 200 µs — far beyond the 12 µs
	// serialization gap — so arrival order is thoroughly shuffled.
	r.ab.InjectReorder(1, 200*time.Microsecond, sim.NewRand(2))
	const n = 200
	r.sendAt(t, 0, n, 1)
	r.finish(t)

	if len(r.got) != n {
		t.Fatalf("delivered %d packets, want all %d (reordering must not lose)", len(r.got), n)
	}
	if got := r.ab.Stats().Reordered; got != n {
		t.Errorf("Reordered = %d, want %d", got, n)
	}
	inversions := 0
	for i := 1; i < len(r.got); i++ {
		if r.got[i] < r.got[i-1] {
			inversions++
		}
	}
	if inversions == 0 {
		t.Error("arrival order identical to send order despite reorder injection")
	}
}

func TestDuplicateDeliversTwiceFromDistinctPackets(t *testing.T) {
	r := newFaultRigOn(t, armed(), 4000)
	r.ab.InjectDuplicate(1, sim.NewRand(3))
	const n = 100
	r.sendAt(t, 0, n, 1)
	r.finish(t)

	if len(r.got) != 2*n {
		t.Fatalf("delivered %d packets, want %d (each exactly twice)", len(r.got), 2*n)
	}
	seen := map[uint64]int{}
	for _, id := range r.got {
		seen[id]++
	}
	for id := uint64(1); id <= n; id++ {
		if seen[id] != 2 {
			t.Errorf("packet %d delivered %d times, want 2", id, seen[id])
		}
	}
	if got := r.ab.Stats().Duplicated; got != n {
		t.Errorf("Duplicated = %d, want %d", got, n)
	}
	// finish() already proved the pool balanced: if a clone had aliased its
	// original, the double release would have panicked under invariants.
}

func TestDuplicateCloneCopiesSack(t *testing.T) {
	r := newFaultRigOn(t, armed(), 100)
	r.ab.InjectDuplicate(1, sim.NewRand(4))
	var sacks [][2]int64
	r.b.SetHandler(func(p *Packet) {
		for _, blk := range p.Sack {
			sacks = append(sacks, [2]int64{int64(blk.Start), int64(blk.End)})
		}
	})
	if _, err := r.sched.At(0, func() {
		pkt := r.net.AllocPacket()
		pkt.Src, pkt.Dst, pkt.Size = r.a.ID(), r.b.ID(), 40
		pkt.Sack = append(pkt.Sack[:0], SackBlock{Start: 1000, End: 2000})
		r.a.Send(pkt)
	}); err != nil {
		t.Fatal(err)
	}
	r.finish(t)
	if len(sacks) != 2 {
		t.Fatalf("saw %d SACK blocks across deliveries, want 2", len(sacks))
	}
	for _, s := range sacks {
		if s != [2]int64{1000, 2000} {
			t.Errorf("SACK block = %v, want [1000 2000]", s)
		}
	}
}

func TestDoubleReleasePanicsUnderInvariants(t *testing.T) {
	sched := armed()
	net := NewNetwork(sched)
	pkt := net.AllocPacket()
	net.ReleasePacket(pkt)
	defer func() {
		if recover() == nil {
			t.Error("double ReleasePacket did not panic with invariant checks on")
		}
	}()
	net.ReleasePacket(pkt)
}

func TestSendAfterReleasePanicsUnderInvariants(t *testing.T) {
	r := newFaultRigOn(t, armed(), 100)
	pkt := r.net.AllocPacket()
	pkt.Src, pkt.Dst, pkt.Size = r.a.ID(), r.b.ID(), 1500
	r.net.ReleasePacket(pkt)
	defer func() {
		rec := recover()
		if rec == nil {
			t.Fatal("Send of a released packet did not panic with invariant checks on")
		}
		if !strings.Contains(fmt.Sprint(rec), "released packet") {
			t.Errorf("panic message %q does not mention released packet", rec)
		}
	}()
	r.ab.Send(pkt)
}

// TestFaultedDeliveryIndependentOfContainer sends the same bursts over a
// clean, jittered, reordering, duplicating, flapping and all-of-these
// pipe twice: on a plain scheduler, where serialization and unjittered
// propagation events ride the FIFO lanes, and on one with the lanes off,
// where every event sits in the wheel. Arrival order, instants and fault
// counters must not depend on the container.
func TestFaultedDeliveryIndependentOfContainer(t *testing.T) {
	type arrival struct {
		id uint64
		at sim.Time
	}
	faults := []struct {
		name   string
		inject func(p *Pipe)
	}{
		{"clean", func(*Pipe) {}},
		{"jitter", func(p *Pipe) { p.InjectJitter(30*time.Microsecond, sim.NewRand(11)) }},
		{"reorder", func(p *Pipe) { p.InjectReorder(0.3, 80*time.Microsecond, sim.NewRand(12)) }},
		{"duplicate", func(p *Pipe) { p.InjectDuplicate(0.3, sim.NewRand(13)) }},
		{"flap", func(p *Pipe) {
			cfg := FlapConfig{FirstDownAt: sim.At(300 * time.Microsecond), DownFor: 200 * time.Microsecond, UpFor: 400 * time.Microsecond, Count: 3}
			if err := p.ScheduleFlaps(cfg); err != nil {
				t.Fatal(err)
			}
		}},
	}
	single := faults
	faults = append(faults, struct {
		name   string
		inject func(p *Pipe)
	}{"all", func(p *Pipe) {
		for _, f := range single {
			f.inject(p)
		}
	}})

	run := func(inject func(*Pipe), noLanes bool) ([]arrival, PipeStats, sim.Stats) {
		sched := sim.NewSchedulerWith(sim.Config{NoLanes: noLanes, Checks: true})
		r := newFaultRigOn(t, sched, 64)
		var got []arrival
		r.b.SetHandler(func(p *Packet) { got = append(got, arrival{p.ID, sched.Now()}) })
		inject(r.ab)
		for burst := 0; burst < 40; burst++ {
			// 1500-byte bursts that queue, and a short packet whose
			// serialization time is a one-off.
			r.sendAt(t, time.Duration(burst)*50*time.Microsecond, 6, uint64(burst)*100)
			r.sendSizedAt(t, time.Duration(burst)*50*time.Microsecond+time.Microsecond, 64+burst, uint64(burst)*100+50)
		}
		sched.Run()
		r.net.CheckInvariants()
		if live := r.net.LivePackets(); live != 0 {
			t.Fatalf("%d pooled packets leaked", live)
		}
		return got, r.ab.Stats(), sched.Stats()
	}
	for _, f := range faults {
		t.Run(f.name, func(t *testing.T) {
			lanes, laneStats, ls := run(f.inject, false)
			wheel, wheelStats, ws := run(f.inject, true)
			if ls.FiredLane == 0 || ws.FiredLane != 0 {
				t.Fatalf("lane-fired events: plain scheduler %d (want > 0), wheel only %d (want 0)", ls.FiredLane, ws.FiredLane)
			}
			if fired := ls.FiredLane + ls.FiredWheel + ls.FiredOverflow; f.name == "clean" && ls.FiredLane*4 < fired*3 {
				t.Errorf("clean pipe: %d of %d events fired from lanes, want the bulk", ls.FiredLane, fired)
			}
			if laneStats != wheelStats {
				t.Errorf("pipe stats differ: lanes %+v, wheel only %+v", laneStats, wheelStats)
			}
			if len(lanes) != len(wheel) {
				t.Fatalf("delivered %d packets with lanes, %d wheel only", len(lanes), len(wheel))
			}
			for i := range lanes {
				if lanes[i] != wheel[i] {
					t.Fatalf("arrival %d: lanes %+v, wheel only %+v", i, lanes[i], wheel[i])
				}
			}
		})
	}
}
