package sim

import (
	"fmt"
	"sync/atomic"
	"time"
	"unsafe"
)

// FIFO lanes: the scheduler's third container, next to the wheel and the
// overflow heap, for events armed through AfterFIFO — never cancelled or
// re-armed, and mostly armed with a handful of constant delays (link
// serialization and propagation times).
//
// Events armed with one delay fire in arming order, because the clock
// never goes back: at = now+d is nondecreasing, seq strictly increasing.
// A lane is therefore a ring of {at, seq, fn, arg} sorted by construction:
// arming appends, the earliest event is the head, and there is no event
// struct, free-list traffic or slot link. The entry carries the one
// pointer its callback needs — a link's packet — so the ring is the wire
// itself, not a second record of it. An event draws its sequence
// number exactly when After would, and the run loop fires whichever of
// {earliest lane head, wheel/overflow minimum} has the smaller (at, seq),
// so dispatch order is bit-for-bit the wheel's; only the container differs.
// That comparison runs before every event, so the lanes' head keys are kept
// apart from the lanes, in two flat arrays it can read in four cache lines.
//
// Lanes are earned: a partial last segment serializes in a one-off time,
// and a first-come table would fill with such delays. A delay gets a lane
// on its laneAdmitAfter-th sighting in a direct-mapped candidate table (a
// collision only postpones that: the slot's holder is replaced once
// outnumbered, and leaves when admitted); with all maxLanes in use it takes
// over an empty lane idle for laneIdleAfter sequence numbers. Until then
// its events go to the wheel, through AtArg.

const (
	laneIdxBits    = 4
	maxLanes       = 1 << laneIdxBits
	laneCandBits   = 6
	laneAdmitAfter = 8
	laneIdleAfter  = 4096
	laneInitCap    = 8 // power of two; rings double when full
)

// fifoToWheel, while positive, makes every scheduler built from then on
// serve each AfterFIFO from the wheel (see WheelOnly).
var fifoToWheel atomic.Int32

// WheelOnly runs fn with the FIFO lanes switched off: every scheduler
// built while fn runs serves each AfterFIFO from the timing wheel, as if
// no delay had earned a lane. Dispatch order, and so every simulated byte,
// must not depend on the container, which makes a WheelOnly run the
// reference the lanes are tested against, here and in the packages above.
// It is for tests only. Calls may nest and overlap.
func WheelOnly(fn func()) {
	fifoToWheel.Add(1)
	defer fifoToWheel.Add(-1)
	fn()
}

type laneEntry struct {
	at  Time
	seq uint64
	fn  func(unsafe.Pointer)
	arg unsafe.Pointer
}

// lane is one delay's FIFO.
type lane struct {
	delay time.Duration
	buf   []laneEntry // ring, len a power of two
	head  int
	n     int
	idx   int // position in laneSet.lanes; 1<<idx is its bit in Scheduler.laneMask
}

// laneSet is allocated on a scheduler's first AfterFIFO.
type laneSet struct {
	n int // lanes admitted
	// headAt[i]/headSeq[i] mirror lane i's head entry (once empty: the last
	// one fired); the run loop reads nothing else of a lane it passes over.
	headAt  [maxLanes]Time
	headSeq [maxLanes]uint64
	lanes   [maxLanes]lane
	// Candidates, per slot: the delay holding it, its sightings since it
	// took the slot, other delays' attempts on the slot meanwhile.
	candDelay [1 << laneCandBits]time.Duration
	candSeen  [1 << laneCandBits]uint8
	candMiss  [1 << laneCandBits]uint8
}

// clear empties every lane and forgets every admission and candidate, as
// on a scheduler's first AfterFIFO, keeping each lane's ring: a lane is
// admitted afresh before it is read again.
func (ls *laneSet) clear() {
	for i := range ls.lanes[:ls.n] {
		l := &ls.lanes[i]
		for ; l.n > 0; l.n-- {
			l.buf[l.head] = laneEntry{}
			l.head = (l.head + 1) & (len(l.buf) - 1)
		}
	}
	*ls = laneSet{lanes: ls.lanes}
}

// candSlot is Fibonacci hashing: a network's few delays are often round.
func candSlot(d time.Duration) int {
	return int(uint64(d) * 0x9E3779B97F4A7C15 >> (64 - laneCandBits))
}

// Lane is a caller's handle on the FIFO lane that served its last
// AfterFIFO: a component that arms its events with a few recurring delays
// keeps one handle per kind of event and passes it on every call, and a
// call whose handle still names the lane of its delay files the event
// there without a lane lookup. A handle names the scheduler's lane
// generation, which every admission, idle-lane takeover and Clear moves
// on, and a lane index: it holds while the generation matches and that
// lane still serves the call's delay, and anything else sends the call
// through the lookup, which sets the handle afresh. The zero Lane holds
// nothing. A handle serves the one scheduler it is passed to.
type Lane struct{ key uint64 } // generation<<laneIdxBits | lane index

// AfterFIFO schedules fn(arg) d after the current instant, for an event
// nobody will cancel or re-arm: the instant and the single sequence number
// drawn are After's, but there is no Timer. Recurring delays are served
// from a FIFO lane instead of the wheel, found through h when h still
// holds it (see Lane); a nil h looks the lane up on every call. Negative d
// is clamped to zero.
func (s *Scheduler) AfterFIFO(h *Lane, d time.Duration, fn func(unsafe.Pointer), arg unsafe.Pointer) {
	if d < 0 {
		d = 0
	}
	at := s.now.Add(d)
	var l *lane
	if h != nil && h.key>>laneIdxBits == s.laneGen && s.lanes.lanes[h.key&(maxLanes-1)].delay == d {
		l = &s.lanes.lanes[h.key&(maxLanes-1)]
	} else {
		s.stats.LaneHandleMisses++
		if l = s.laneFor(d); l != nil && h != nil {
			h.key = s.laneGen<<laneIdxBits | uint64(l.idx)
		}
	}
	if l == nil || at < s.now {
		// An instant past End wraps below now, and AtArg drops it as
		// After would.
		_, _ = s.AtArg(at, fn, arg)
		return
	}
	if l.n == len(l.buf) {
		buf := make([]laneEntry, max(2*len(l.buf), laneInitCap))
		n := copy(buf, l.buf[l.head:])
		copy(buf[n:], l.buf[:l.head])
		l.buf, l.head = buf, 0
	}
	l.buf[(l.head+l.n)&(len(l.buf)-1)] = laneEntry{at: at, seq: s.seq, fn: fn, arg: arg}
	if l.n == 0 {
		s.lanes.headAt[l.idx], s.lanes.headSeq[l.idx] = at, s.seq
		s.laneMask |= 1 << uint(l.idx)
	}
	s.seq++
	l.n++
	s.laneLive++
	s.live++
}

// laneFor returns the lane serving delay d, admitting d when it has
// recurred often enough, or nil when the event belongs in the wheel.
func (s *Scheduler) laneFor(d time.Duration) *lane {
	if s.wheelOnly {
		s.stats.FIFONoLane++
		return nil
	}
	if s.lanes == nil {
		s.lanes = &laneSet{}
	}
	ls := s.lanes
	for i := range ls.lanes[:ls.n] {
		if ls.lanes[i].delay == d {
			return &ls.lanes[i]
		}
	}
	i := ls.n
	if !ls.earned(d) {
		i = maxLanes
	} else if i < maxLanes {
		ls.n++
		s.stats.Lanes++
	} else {
		// All in use: take an empty lane idle for laneIdleAfter sequence numbers.
		for k := range ls.lanes {
			if ls.lanes[k].n == 0 && s.seq-ls.headSeq[k] >= laneIdleAfter {
				i = k
				break
			}
		}
	}
	if i == maxLanes {
		s.stats.FIFONoLane++
		return nil
	}
	l := &ls.lanes[i]
	l.delay, l.idx = d, i
	s.laneGen++ // lane i serves d now: no handle taken before holds
	return l
}

// earned counts one sighting of the not yet admitted delay d and reports
// whether d has now earned a lane.
func (ls *laneSet) earned(d time.Duration) bool {
	c := candSlot(d)
	if ls.candDelay[c] != d {
		// The holder keeps its slot until outnumbered: colliding recurring
		// delays are admitted in turn, a one-off holder goes in two misses.
		if ls.candMiss[c]++; ls.candMiss[c] <= ls.candSeen[c] {
			return false
		}
		ls.candDelay[c], ls.candSeen[c], ls.candMiss[c] = d, 0, 0
	}
	if ls.candSeen[c]++; ls.candSeen[c] < laneAdmitAfter {
		return false
	}
	ls.candSeen[c], ls.candMiss[c] = 0, 0
	return true
}

// fireLane pops l's head, advances the clock to it and runs it.
func (s *Scheduler) fireLane(l *lane) {
	e := &l.buf[l.head]
	at, fn, arg := e.at, e.fn, e.arg
	if invariantChecks.Load() {
		s.verifyAccounting(at, e.seq)
	}
	e.fn, e.arg = nil, nil
	l.head = (l.head + 1) & (len(l.buf) - 1)
	l.n--
	if l.n == 0 {
		s.laneMask &^= 1 << uint(l.idx)
	} else {
		s.lanes.headAt[l.idx], s.lanes.headSeq[l.idx] = l.buf[l.head].at, l.buf[l.head].seq
	}
	s.laneLive--
	s.advanceTo(at)
	s.fired++
	s.stats.FiredLane++
	s.live--
	fn(arg)
}

// checkLanes: rings sorted and not before the clock, head-key mirrors, mask, laneLive.
func (s *Scheduler) checkLanes() {
	stored := 0
	for i := 0; s.lanes != nil && i < s.lanes.n; i++ {
		l := &s.lanes.lanes[i]
		at, seq := s.lanes.headAt[i], s.lanes.headSeq[i]
		drift := (s.laneMask&(1<<uint(i)) != 0) != (l.n > 0) || l.idx != i
		prev := laneEntry{at: s.now, seq: seq}
		for k := 0; k < l.n && !drift; k++ {
			e := l.buf[(l.head+k)&(len(l.buf)-1)]
			drift = e.fn == nil || e.at < prev.at || (k > 0 && e.seq <= prev.seq) || (k == 0 && (e.at != at || e.seq != seq))
			prev = e
		}
		if drift {
			panic(fmt.Sprintf("sim: lane %d (delay %v) drift: mask=%#x idx=%d entries=%d head mirror seq=%d at=%v, unsorted or before now=%v at entry seq=%d at=%v",
				i, l.delay, s.laneMask, l.idx, l.n, seq, at, s.now, prev.seq, prev.at))
		}
		stored += l.n
	}
	if stored != s.laneLive {
		panic(fmt.Sprintf("sim: lane count drift: stored %d events, laneLive says %d", stored, s.laneLive))
	}
}
