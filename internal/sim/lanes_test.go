package sim

import (
	"strings"
	"testing"
	"time"
	"unsafe"
)

// armFIFO arms n no-op AfterFIFO events with delay d.
func armFIFO(s *Scheduler, d time.Duration, n int) {
	for i := 0; i < n; i++ {
		s.AfterFIFO(nil, d, func(unsafe.Pointer) {}, nil)
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
		s.AfterFIFO(nil, time.Duration(5000+i), func(unsafe.Pointer) {}, nil)
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
	run := func(cfg Config) (trace []fired, st Stats, s *Scheduler) {
		s = NewSchedulerWith(cfg)
		arm := func(d time.Duration) {
			id := int(s.seq)
			s.AfterFIFO(nil, d, func(unsafe.Pointer) { trace = append(trace, fired{id, s.Now()}) }, nil)
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
	trace, st, s := run(defaultConfig)
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
	want, _, _ := run(noLanes())
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
		s.AfterFIFO(nil, d, func(unsafe.Pointer) {
			if s.Now() != want {
				t.Errorf("delay %v fired at %v, want %v", d, s.Now(), want)
			}
		}, nil)
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

// TestAfterFIFOShardedFallsBackToWheel: a scheduler built with the lanes
// off gives no delay a lane, however often it recurs — every AfterFIFO is
// a wheel event fired with its own argument — and one built with them
// live earns lanes again.
func TestAfterFIFOShardedFallsBackToWheel(t *testing.T) {
	const n = 3 * laneAdmitAfter
	run := func(cfg Config) (Stats, []int) {
		s := NewSchedulerWith(cfg)
		ids := make([]int, n)
		var got []int
		for i := range ids {
			ids[i] = i
			s.AfterFIFO(nil, time.Microsecond, func(arg unsafe.Pointer) { got = append(got, *(*int)(arg)) }, unsafe.Pointer(&ids[i]))
		}
		s.Run()
		return s.Stats(), got
	}
	st, got := run(noLanes())
	if st.FiredLane != 0 || st.Lanes != 0 || st.FIFONoLane != n {
		t.Errorf("stats %+v: want every AfterFIFO counted as a wheel fallback", st)
	}
	for i, id := range got {
		if id != i {
			t.Fatalf("event %d fired with the argument of event %d", i, id)
		}
	}
	if len(got) != n {
		t.Fatalf("fired %d of %d events", len(got), n)
	}
	if st, _ := run(defaultConfig); st.Lanes != 1 || st.FiredLane == 0 {
		t.Errorf("lanes live: stats %+v, want the delay back in a lane", st)
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
	s.AfterFIFO(nil, 10*time.Microsecond, func(unsafe.Pointer) { got = append(got, "lane10") }, nil)
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
			s.AfterFIFO(nil, d, func(unsafe.Pointer) { got = append(got, i) }, nil)
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
	// One callback for every event: each entry's argument says which it is.
	check := func(arg unsafe.Pointer) {
		if id := *(*uint64)(arg); int(id) != next {
			t.Fatalf("fired seq %d, want %d", id, next)
		}
		next++
	}
	arm := func(n int) {
		for i := 0; i < n; i++ {
			id := s.seq
			s.AfterFIFO(nil, d, check, unsafe.Pointer(&id))
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
	delays := []time.Duration{32, 320, 1200, 12_000, 10_000, 20_000}
	var weights [6]int
	sum := 0
	fn := func(arg unsafe.Pointer) { sum += *(*int)(arg) }
	for i := 0; i < 64; i++ { // admit the lanes, size the rings
		for k, d := range delays {
			weights[k] = 1 << k
			s.AfterFIFO(nil, d, fn, unsafe.Pointer(&weights[k]))
		}
	}
	s.RunUntil(s.Now().Add(100 * time.Microsecond))
	sum = 0
	allocs := testing.AllocsPerRun(1000, func() {
		for k, d := range delays {
			s.AfterFIFO(nil, d, fn, unsafe.Pointer(&weights[k]))
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
	s.Run()
	if sum != 1001*63 {
		t.Errorf("the events' arguments sum to %d, want %d: an event ran with another's argument", sum, 1001*63)
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
	s := NewSchedulerWith(Config{Checks: true})
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

// TestWalkFIFOVisitsEveryContainer arms argument-carrying events in a
// lane, in the wheel (a delay without a lane, and AtArg) and in the
// overflow heap: the walk visits each pending one once with its own
// argument, and none that has fired or is a plain event.
func TestWalkFIFOVisitsEveryContainer(t *testing.T) {
	s := NewScheduler()
	fired := 0
	fn := func(unsafe.Pointer) { fired++ }
	ids := make([]int, 64)
	next := 0
	arm := func(arm func(arg unsafe.Pointer)) {
		ids[next] = next
		arm(unsafe.Pointer(&ids[next]))
		next++
	}
	armFIFO(s, 1200, laneAdmitAfter) // admit the lane
	s.Run()
	for i := 0; i < 5; i++ {
		arm(func(arg unsafe.Pointer) { s.AfterFIFO(nil, 1200, fn, arg) })                  // lane
		arm(func(arg unsafe.Pointer) { s.AfterFIFO(nil, time.Duration(7000+i), fn, arg) }) // no lane yet
	}
	arm(func(arg unsafe.Pointer) {
		if _, err := s.AtArg(s.Now().Add(3*time.Microsecond), fn, arg); err != nil {
			t.Fatal(err)
		}
	})
	arm(func(arg unsafe.Pointer) {
		if _, err := s.AtArg(s.Now().Add(40*time.Second), fn, arg); err != nil { // overflow heap
			t.Fatal(err)
		}
	})
	s.After(time.Microsecond, func() {}) // plain: never visited
	if _, err := s.AtArg(s.Now()-1, fn, nil); err != ErrPastEvent {
		t.Errorf("AtArg in the past: err = %v, want ErrPastEvent", err)
	}
	walk := func() map[int]int {
		seen := map[int]int{}
		s.WalkFIFO(func(_ func(unsafe.Pointer), arg unsafe.Pointer) { seen[*(*int)(arg)]++ })
		return seen
	}
	if seen := walk(); len(seen) != next {
		t.Fatalf("walk saw %d distinct arguments, want %d: %v", len(seen), next, seen)
	}
	if st := s.Stats(); s.laneLive != 5 || s.heapLive != 1 || st.FIFONoLane == 0 {
		t.Fatalf("lanes %d, overflow %d, stats %+v: want events in all three containers", s.laneLive, s.heapLive, st)
	}
	s.RunUntil(s.Now().Add(time.Millisecond))
	seen := walk()
	if len(seen) != 1 || seen[next-1] != 1 || fired != next-1 {
		t.Errorf("after the near events fired (%d of them), walk saw %v; want only the far one", fired, seen)
	}
}

// TestLaneHandleMisses counts the lookups Lane handles leave to laneFor:
// one per call until a delay is admitted, then none while the handle
// holds. An admission, a takeover and a Clear each cost every handle one
// more, and a handle that names another delay's lane never files there.
func TestLaneHandleMisses(t *testing.T) {
	s := NewScheduler()
	fn := func(unsafe.Pointer) {}
	misses := func() uint64 { return s.Stats().LaneHandleMisses }
	var tx, other Lane
	const d = 1200 * time.Nanosecond
	for i := 0; i < 100; i++ {
		s.AfterFIFO(&tx, d, fn, nil)
	}
	if got := misses(); got != laneAdmitAfter {
		t.Fatalf("100 calls on one delay missed %d times, want the %d before admission", got, laneAdmitAfter)
	}
	// A second delay's admission moves the generation on: tx misses once.
	for i := 0; i < laneAdmitAfter; i++ {
		s.AfterFIFO(&other, 320, fn, nil)
	}
	before := misses()
	s.AfterFIFO(&tx, d, fn, nil)
	s.AfterFIFO(&tx, d, fn, nil)
	if got := misses() - before; got != 1 {
		t.Errorf("after another admission tx missed %d times in two calls, want 1", got)
	}
	// A handle on d's lane passed with the other delay looks it up, and the
	// event goes to the other delay's lane.
	before = misses()
	s.AfterFIFO(&tx, 320, fn, nil)
	if got := misses() - before; got != 1 || laneHolding(s, 320) != int(tx.key&(maxLanes-1)) {
		t.Errorf("a handle met another delay: %d misses, handle on lane %d, want 1 and lane %d",
			got, tx.key&(maxLanes-1), laneHolding(s, 320))
	}
	s.Run()

	// After Clear the old handle holds nothing, though the lane it names
	// kept its ring.
	s.Clear()
	s.AfterFIFO(&tx, 320, fn, nil)
	if st := s.Stats(); st.LaneHandleMisses != 1 || st.FIFONoLane != 1 || s.laneLive != 0 {
		t.Errorf("after Clear: %+v, %d events in lanes; want the stale handle to miss and the delay to wait for admission", st, s.laneLive)
	}
	s.Run()
}
