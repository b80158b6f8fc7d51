package sim

import (
	"strings"
	"testing"
	"time"
)

// armFIFO arms n no-op AfterFIFO events with delay d.
func armFIFO(s *Scheduler, d time.Duration, n int) {
	for i := 0; i < n; i++ {
		s.AfterFIFO(d, func() {})
	}
}

func TestLaneAdmission(t *testing.T) {
	s := NewScheduler()
	const d = 1200 * time.Nanosecond

	// The eighth sighting of a recurring delay is admitted and served.
	armFIFO(s, d, laneAdmitAfter-1)
	if st := s.Stats(); st.Lanes != 0 || st.FIFONoLane != laneAdmitAfter-1 {
		t.Fatalf("after %d sightings: Lanes=%d FIFONoLane=%d", laneAdmitAfter-1, st.Lanes, st.FIFONoLane)
	}
	armFIFO(s, d, 1)
	if st := s.Stats(); st.Lanes != 1 || s.laneLive != 1 {
		t.Fatalf("eighth sighting: Lanes=%d laneLive=%d, want 1 and 1", st.Lanes, s.laneLive)
	}
	armFIFO(s, d, 5)

	// A one-off delay never gets a lane, however many different ones pass.
	for i := 0; i < 1000; i++ {
		s.AfterFIFO(time.Duration(5000+i), func() {})
	}
	if st := s.Stats(); st.Lanes != 1 || st.FIFONoLane != 1000+laneAdmitAfter-1 {
		t.Fatalf("one-off delays: Lanes=%d FIFONoLane=%d, want 1 and %d", st.Lanes, st.FIFONoLane, 1000+laneAdmitAfter-1)
	}
	// They fill the candidate table, which costs the next recurring delay
	// at most one sighting.
	armFIFO(s, 320, laneAdmitAfter+1)
	if st := s.Stats(); st.Lanes != 2 {
		t.Fatalf("Lanes=%d: a recurring delay was kept out by one-off candidates", st.Lanes)
	}
	if s.laneLive < 6+1 || s.Len() != 1000+2*laneAdmitAfter+6 {
		t.Fatalf("laneLive=%d Len=%d", s.laneLive, s.Len())
	}
	s.CheckAccounting()
	fromLanes := uint64(s.laneLive)
	s.Run()
	if st := s.Stats(); st.FiredLane != fromLanes || st.FiredWheel != s.Fired()-fromLanes {
		t.Errorf("fired lane=%d wheel=%d of %d, want %d from lanes", st.FiredLane, st.FiredWheel, s.Fired(), fromLanes)
	}
}

// collidingDelay returns another delay that shares a's candidate slot.
func collidingDelay(a time.Duration) time.Duration {
	b := a + 1
	for candSlot(b) != candSlot(a) {
		b++
	}
	return b
}

func TestLaneAdmissionCandidateCollision(t *testing.T) {
	// The tree's two ACK serialization times share a slot, and alternate.
	if candSlot(32) != candSlot(320) {
		t.Log("32ns and 320ns no longer collide; the cases below use a computed pair")
	}
	lanes := func(s *Scheduler) int { return s.Stats().Lanes }

	t.Run("holder keeps the slot", func(t *testing.T) {
		s := NewScheduler()
		a := time.Duration(320)
		b := collidingDelay(a)
		armFIFO(s, a, 5)
		armFIFO(s, b, 3) // outnumbered 5:3, ignored
		armFIFO(s, a, laneAdmitAfter-6)
		if lanes(s) != 0 {
			t.Fatalf("a admitted after %d sightings", laneAdmitAfter-1)
		}
		armFIFO(s, a, 1)
		if lanes(s) != 1 {
			t.Fatal("collisions cost a its count")
		}
		armFIFO(s, b, laneAdmitAfter) // the slot is b's alone now
		if lanes(s) != 2 {
			t.Fatal("b not admitted once a left the candidate table")
		}
	})
	t.Run("strict alternation", func(t *testing.T) {
		s := NewScheduler()
		a := time.Duration(32)
		b := collidingDelay(a)
		for i := 0; i < 2*laneAdmitAfter; i++ {
			armFIFO(s, a, 1)
			armFIFO(s, b, 1)
		}
		if lanes(s) != 2 {
			t.Fatalf("Lanes = %d after %d alternating sightings each, want both admitted", lanes(s), 2*laneAdmitAfter)
		}
	})
	t.Run("one-off holder", func(t *testing.T) {
		s := NewScheduler()
		a := time.Duration(1200)
		armFIFO(s, collidingDelay(a), 1) // seen once, never again
		armFIFO(s, a, 2)                 // two misses evict it
		armFIFO(s, a, laneAdmitAfter-2)
		if lanes(s) != 0 {
			t.Fatal("a admitted early")
		}
		armFIFO(s, a, 1)
		if lanes(s) != 1 {
			t.Fatalf("a not admitted %d sightings after evicting a one-off", laneAdmitAfter)
		}
	})
}

// TestLaneReclaimedForLateHotDelays fills every lane with delays that stop
// recurring before the hot ones first appear: the hot delays take over the
// idle lanes, a cold lane that still holds an event keeps it, and the
// dispatch trace is the one the wheel alone produces.
func TestLaneReclaimedForLateHotDelays(t *testing.T) {
	hot := []time.Duration{32, 320, 1200, 12_000, 10_000, 20_000}
	const busy = 50 * time.Millisecond // cold, but pending throughout
	type fired struct {
		id int
		at Time
	}
	run := func() (trace []fired, st Stats, s *Scheduler) {
		s = NewScheduler()
		arm := func(d time.Duration) {
			id := int(s.seq)
			s.AfterFIFO(d, func() { trace = append(trace, fired{id, s.Now()}) })
		}
		for k := 0; k < maxLanes+4; k++ { // more cold delays than lanes
			d := time.Duration(7000 + 13*k)
			if k == 3 {
				d = busy
			}
			for i := 0; i < laneAdmitAfter+2; i++ {
				arm(d)
			}
		}
		s.RunUntil(s.Now().Add(time.Millisecond))
		for i := 0; i < 20_000; i++ {
			for _, d := range hot {
				arm(d)
			}
			s.RunUntil(s.Now().Add(time.Microsecond))
			if i%1000 == 0 {
				s.CheckAccounting()
			}
		}
		st = s.Stats()
		s.Run()
		return trace, st, s
	}
	trace, st, s := run()
	if st.Lanes != maxLanes {
		t.Fatalf("Lanes = %d, want all %d in use", st.Lanes, maxLanes)
	}
	held := map[time.Duration]bool{}
	for i := range s.lanes.lanes {
		held[s.lanes.lanes[i].delay] = true
	}
	for _, d := range append(hot, busy) {
		if !held[d] {
			t.Errorf("delay %v holds no lane", d)
		}
	}
	if total := uint64(20_000 * len(hot)); st.FiredLane*100 < total*90 {
		t.Errorf("lanes fired %d of about %d events: late delays were kept out", st.FiredLane, total)
	}
	fifoToWheel = true
	want, _, _ := run()
	fifoToWheel = false
	if len(trace) != len(want) {
		t.Fatalf("fired %d events, the wheel alone %d", len(trace), len(want))
	}
	for i := range trace {
		if trace[i] != want[i] {
			t.Fatalf("dispatch %d differs from the wheel-only run", i)
		}
	}
}

// laneHolding returns the index of the lane whose delay is d, or -1.
func laneHolding(s *Scheduler, d time.Duration) int {
	for i := 0; s.lanes != nil && i < s.lanes.n; i++ {
		if s.lanes.lanes[i].delay == d {
			return i
		}
	}
	return -1
}

// TestLaneLookupByDelayOnly: whatever two delays share — a candidate slot,
// or a lane one of them lost to the other — an event only ever enters the
// lane that holds its own delay, and fires at its own instant.
func TestLaneLookupByDelayOnly(t *testing.T) {
	// armChecked arms one event and has it verify its own firing instant.
	armChecked := func(t *testing.T, s *Scheduler, d time.Duration) {
		want := s.Now().Add(d)
		s.AfterFIFO(d, func() {
			if s.Now() != want {
				t.Errorf("delay %v fired at %v, want %v", d, s.Now(), want)
			}
		})
	}

	t.Run("two delays share a candidate slot", func(t *testing.T) {
		s := NewScheduler()
		a, b := time.Duration(32), time.Duration(320) // the tree's two ACK serialization times
		if candSlot(a) != candSlot(b) {
			b = collidingDelay(a)
		}
		for i := 0; i < 2*laneAdmitAfter; i++ {
			armFIFO(s, a, 1)
			armFIFO(s, b, 1)
		}
		s.Run()
		la, lb := laneHolding(s, a), laneHolding(s, b)
		if la < 0 || lb < 0 || la == lb {
			t.Fatalf("lanes %d and %d for two delays sharing slot %d", la, lb, candSlot(a))
		}
		before := s.Stats()
		for i := 0; i < 500; i++ {
			armChecked(t, s, a)
			if n := s.lanes.lanes[la].n; n != 1 {
				t.Fatalf("round %d: lane of %v holds %d events after arming it, want 1", i, a, n)
			}
			armChecked(t, s, b)
			if n := s.lanes.lanes[lb].n; n != 1 {
				t.Fatalf("round %d: lane of %v holds %d events after arming it, want 1", i, b, n)
			}
			s.CheckAccounting()
			s.Run()
		}
		if st := s.Stats(); st.FiredLane-before.FiredLane != 1000 || st.FIFONoLane != before.FIFONoLane {
			t.Errorf("stats %+v after %+v: want all 1000 events served by the two lanes", st, before)
		}
	})

	t.Run("a delay that lost its lane", func(t *testing.T) {
		s := NewScheduler()
		cold := make([]time.Duration, maxLanes)
		for k := range cold {
			cold[k] = time.Duration(7000 + 13*k)
			armFIFO(s, cold[k], laneAdmitAfter+2)
		}
		s.Run()
		if s.Stats().Lanes != maxLanes {
			t.Fatalf("Lanes = %d, want all %d held by cold delays", s.Stats().Lanes, maxLanes)
		}
		const hot = time.Duration(1200)
		for i := 0; i < laneIdleAfter+laneAdmitAfter; i++ {
			armFIFO(s, hot, 1)
			s.Run()
		}
		taken := laneHolding(s, hot)
		if taken < 0 {
			t.Fatal("the hot delay took over no idle lane")
		}
		var evicted time.Duration
		for _, d := range cold {
			if laneHolding(s, d) < 0 {
				evicted = d
			}
		}
		before := s.Stats().FIFONoLane
		armChecked(t, s, evicted)
		if n := s.lanes.lanes[taken].n; n != 0 {
			t.Errorf("an event of the evicted delay %v went into the lane now serving %v", evicted, hot)
		}
		if got := s.Stats().FIFONoLane - before; got != 1 {
			t.Errorf("FIFONoLane rose by %d, want 1: the evicted delay is a candidate again", got)
		}
		s.CheckAccounting()
		s.Run()
	})
}

func TestAfterFIFOShardedFallsBackToWheel(t *testing.T) {
	g := NewShardGroup(1)
	s := g.Shard(0)
	fired := 0
	for i := 0; i < 3*laneAdmitAfter; i++ {
		s.AfterFIFO(time.Microsecond, func() { fired++ })
	}
	g.Run()
	st := s.Stats()
	if fired != 3*laneAdmitAfter || st.FiredLane != 0 || st.Lanes != 0 || st.FIFOSharded != 3*laneAdmitAfter {
		t.Errorf("fired=%d stats=%+v: want every AfterFIFO counted as a sharded fallback", fired, st)
	}
}

// TestRunUntilStopsBetweenLaneAndWheel puts the horizon between a lane
// head and a wheel event, both ways round.
func TestRunUntilStopsBetweenLaneAndWheel(t *testing.T) {
	s := NewScheduler()
	var got []string
	armFIFO(s, 10*time.Microsecond, laneAdmitAfter) // admit the lane
	s.Run()
	base := s.Now()

	s.After(5*time.Microsecond, func() { got = append(got, "wheel5") })
	s.AfterFIFO(10*time.Microsecond, func() { got = append(got, "lane10") })
	s.After(15*time.Microsecond, func() { got = append(got, "wheel15") })
	if s.laneLive != 1 {
		t.Fatalf("laneLive = %d, want the 10µs event in its lane", s.laneLive)
	}
	for _, step := range []struct {
		horizon time.Duration
		want    string
		peek    time.Duration
	}{
		{7 * time.Microsecond, "wheel5", 10 * time.Microsecond},
		{12 * time.Microsecond, "wheel5 lane10", 15 * time.Microsecond},
		{20 * time.Microsecond, "wheel5 lane10 wheel15", -1},
	} {
		s.RunUntil(base.Add(step.horizon))
		if s.Now() != base.Add(step.horizon) {
			t.Errorf("RunUntil(+%v) left the clock at %v", step.horizon, s.Now())
		}
		if strings.Join(got, " ") != step.want {
			t.Errorf("after RunUntil(+%v): fired %v, want %s", step.horizon, got, step.want)
		}
		want := End
		if step.peek >= 0 {
			want = base.Add(step.peek)
		}
		if s.PeekTime() != want {
			t.Errorf("after RunUntil(+%v): PeekTime = %v, want %v", step.horizon, s.PeekTime(), want)
		}
	}
}

// TestLaneSameInstantOrder arms wheel and lane events for one instant:
// they fire in arming order whatever the container.
func TestLaneSameInstantOrder(t *testing.T) {
	s := NewScheduler()
	const d = 3 * time.Microsecond
	armFIFO(s, d, laneAdmitAfter)
	s.Run()
	var got []int
	before := s.Stats().FiredLane
	for i := 0; i < 8; i++ {
		i := i
		if i%2 == 0 {
			s.AfterFIFO(d, func() { got = append(got, i) })
		} else {
			s.After(d, func() { got = append(got, i) })
		}
	}
	s.Run()
	for i, id := range got {
		if id != i {
			t.Fatalf("same-instant events fired as %v, want arming order", got)
		}
	}
	if n := s.Stats().FiredLane - before; n != 4 {
		t.Errorf("%d events fired from the lane, want the four AfterFIFO events", n)
	}
}

func TestLaneRingGrowsAndWraps(t *testing.T) {
	s := NewScheduler()
	const d = time.Microsecond
	next := 0
	arm := func(n int) {
		for i := 0; i < n; i++ {
			id := s.seq
			s.AfterFIFO(d, func() {
				if int(id) != next {
					t.Fatalf("fired seq %d, want %d", id, next)
				}
				next++
			})
		}
	}
	arm(laneAdmitAfter)
	s.Run()
	// Leave the ring head mid-buffer, then grow through several doublings.
	arm(laneInitCap - 3)
	for i := 0; i < 4; i++ {
		s.Step()
	}
	arm(10 * laneInitCap)
	s.CheckAccounting()
	s.Run()
	if s.Len() != 0 || int(s.Fired()) != next {
		t.Errorf("Len=%d Fired=%d next=%d", s.Len(), s.Fired(), next)
	}
}

func TestAfterFIFOSteadyStateZeroAlloc(t *testing.T) {
	s := NewScheduler()
	for i := 0; i < 1000; i++ { // standing timers in the wheel
		s.After(time.Duration(1+i%1000)*time.Millisecond, func() {})
	}
	fn := func() {}
	delays := []time.Duration{32, 320, 1200, 12_000, 10_000, 20_000}
	for i := 0; i < 64; i++ { // admit the lanes, size the rings
		for _, d := range delays {
			s.AfterFIFO(d, fn)
		}
	}
	s.RunUntil(s.Now().Add(100 * time.Microsecond))
	allocs := testing.AllocsPerRun(1000, func() {
		for _, d := range delays {
			s.AfterFIFO(d, fn)
		}
		for range delays {
			if !s.Step() {
				t.Fatal("Step() found no event")
			}
		}
	})
	if allocs != 0 {
		t.Errorf("AfterFIFO+fire allocates %.2f allocs/op, want 0", allocs)
	}
	if st := s.Stats(); st.Lanes != len(delays) || st.FiredLane < 6000 {
		t.Errorf("stats %+v: want %d lanes carrying the measured events", st, len(delays))
	}
}

// TestCheckAccountingDetectsCorruption damages one structure at a time and
// expects CheckAccounting to name it.
func TestCheckAccountingDetectsCorruption(t *testing.T) {
	build := func() *Scheduler {
		s := NewScheduler()
		for i := 0; i < 40; i++ {
			s.After(time.Duration(1+i*37)*time.Microsecond, func() {})
		}
		s.After(40*time.Second, func() {}) // overflow heap
		armFIFO(s, 1200, laneAdmitAfter+4)
		armFIFO(s, 20_000, laneAdmitAfter+4)
		s.CheckAccounting()
		return s
	}
	firstEvent := func(s *Scheduler) *event {
		return s.wheel.findMin(s.now)
	}
	cases := []struct {
		name    string
		corrupt func(s *Scheduler)
		want    string
	}{
		{"set bit over an empty slot", func(s *Scheduler) { s.wheel.occ[2][3] |= 1 << 7 }, "bitmap drift"},
		{"set bit in an empty word", func(s *Scheduler) { s.wheel.occ[1][3] = 1 << 9 }, "bitmap drift"},
		{"cleared bit over a list", func(s *Scheduler) {
			ev := firstEvent(s)
			s.wheel.occ[ev.level][ev.slot>>6] &^= 1 << (ev.slot & 63)
		}, "bitmap drift"},
		{"misfiled event", func(s *Scheduler) { firstEvent(s).slot++ }, "misfiled wheel event"},
		{"wheel event before now", func(s *Scheduler) { s.now = firstEvent(s).at + 1 }, "is before now"},
		{"stale cached minimum", func(s *Scheduler) {
			min := firstEvent(s)
			for l := range s.wheel.slots {
				for _, head := range s.wheel.slots[l] {
					if head != nil && head != min {
						s.wheel.min = head
					}
				}
			}
		}, "precedes the cached minimum"},
		{"wheel count", func(s *Scheduler) { s.wheel.count++; s.live++ }, "wheel count drift"},
		{"overflow count", func(s *Scheduler) { s.heapLive++; s.live++ }, "overflow count drift"},
		{"swapped lane entries", func(s *Scheduler) {
			l := &s.lanes.lanes[0]
			i, j := (l.head+2)&(len(l.buf)-1), (l.head+3)&(len(l.buf)-1)
			l.buf[i], l.buf[j] = l.buf[j], l.buf[i]
		}, ") drift: mask"},
		{"lane entry before now", func(s *Scheduler) {
			l := &s.lanes.lanes[0]
			s.lanes.headAt[0], l.buf[l.head].at = s.now-1, s.now-1
		}, ") drift: mask"},
		{"lane head mirror", func(s *Scheduler) { s.lanes.headSeq[1]++ }, ") drift: mask"},
		{"lane head instant mirror", func(s *Scheduler) { s.lanes.headAt[1]++ }, ") drift: mask"},
		{"lane index", func(s *Scheduler) { s.lanes.lanes[1].idx = 0 }, ") drift: mask"},
		{"lane active mask", func(s *Scheduler) { s.laneMask &^= 2 }, ") drift: mask"},
		{"lane count", func(s *Scheduler) { s.laneLive++; s.live++ }, "lane count drift"},
		{"live", func(s *Scheduler) { s.live++ }, "live-event accounting drift"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := build()
			tc.corrupt(s)
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, tc.want) {
					t.Errorf("CheckAccounting panicked with %q, want a message containing %q", msg, tc.want)
				}
			}()
			s.CheckAccounting()
		})
	}
}

// TestVerifyAccountingCoversLanes arms the per-dispatch assertions and
// breaks the live count while only lanes hold events.
func TestVerifyAccountingCoversLanes(t *testing.T) {
	SetInvariantChecks(true)
	defer SetInvariantChecks(false)
	s := NewScheduler()
	armFIFO(s, time.Microsecond, laneAdmitAfter)
	s.Run() // clean: live == lanes all the way down
	armFIFO(s, time.Microsecond, 2)
	s.laneLive++
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "accounting drift") {
			t.Errorf("lane dispatch panicked with %q, want accounting drift", msg)
		}
	}()
	s.Step()
}

// TestShardMergeRewriteDropsCachedMin: shard 1 consumes three sequence
// numbers and then posts X to shard 0 for instant T; later in the same
// window shard 0 arms Y for T under a provisional number smaller than
// X's definitive one. Y is the wheel's cached minimum when the barrier
// files X and then rewrites Y's number past it, so X must fire first —
// as it does on one core.
func TestShardMergeRewriteDropsCachedMin(t *testing.T) {
	const lookahead = 100 * time.Microsecond
	run := func(a, b *Scheduler, post func(at Time, fn func()), drive func()) string {
		var got []string
		at := Time(4*time.Microsecond + lookahead)
		for i := 1; i <= 3; i++ {
			b.After(time.Duration(i)*time.Microsecond, func() { b.After(time.Second, func() {}) })
		}
		b.After(4*time.Microsecond, func() { post(at, func() { got = append(got, "X") }) })
		a.After(5*time.Microsecond, func() {
			a.After(at.Sub(a.Now()), func() { got = append(got, "Y") })
		})
		drive()
		return strings.Join(got, "")
	}
	one := NewScheduler()
	want := run(one, one, func(at Time, fn func()) { one.At(at, fn) }, func() { one.RunUntil(Time(time.Millisecond)) }) //nolint:errcheck // at is ahead
	g := NewShardGroup(2)
	g.SetLookahead(Time(lookahead))
	g.SetParallel(false)
	a, b := g.Shard(0), g.Shard(1)
	got := run(a, b, func(at Time, fn func()) { b.Post(a, at, nil, fn) }, func() { g.RunUntil(Time(time.Millisecond)) })
	if want != "XY" || got != want {
		t.Errorf("sharded run fired %q, one core %q, want XY", got, want)
	}
}
