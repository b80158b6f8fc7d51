package sim

import (
	"errors"
	"fmt"
	"math/bits"
	"os"
	"time"
	"unsafe"
)

// ErrPastEvent is returned when an event is scheduled before the current
// virtual time.
var ErrPastEvent = errors.New("sim: event scheduled in the past")

// eventState tracks where an event is in its lifecycle. Done events live
// on the scheduler's free list awaiting reuse; cancellation releases an
// event eagerly, so there is no lingering cancelled state.
type eventState uint8

const (
	evScheduled eventState = iota
	evDone
)

// Where an armed event is stored.
const (
	placeNone  uint8 = iota
	placeWheel       // linked into a timing-wheel slot
	placeHeap        // referenced by an overflow-heap entry
)

// event is a scheduled callback: fn, or afn(arg) for an event armed in
// the argument form (AtArg, AfterArg, AfterFIFO). seq provides stable FIFO
// ordering among events with the same firing time so that runs are fully
// deterministic; it is reassigned on every arming (schedule or
// Timer.Reset), which also lets stale overflow-heap entries be recognized
// by seq mismatch. Events are recycled through a per-scheduler free list;
// gen is bumped on every recycle so stale Timer handles can detect that
// their event has been reused for a different callback.
type event struct {
	at    Time
	seq   uint64
	gen   uint64
	fn    func()
	afn   func(unsafe.Pointer)
	arg   unsafe.Pointer
	next  *event // wheel slot list links (intrusive, nil off-wheel)
	prev  *event
	sched *Scheduler
	state eventState
	where uint8
	level uint8
	slot  uint8
}

// Timer is a handle to a scheduled event that can be cancelled or
// re-armed before it fires. Timer is a small value; the zero Timer is
// valid and behaves as an already-fired timer (Stop and Reset report
// false, Pending reports false). The generation captured at scheduling
// time guards against the underlying event struct being recycled for a
// later callback.
type Timer struct {
	ev  *event
	gen uint64
}

// Stop cancels the timer. It reports whether the timer was still pending
// (i.e., Stop prevented it from firing). The event is compacted out of
// its wheel slot eagerly and returned to the free list.
func (t Timer) Stop() bool {
	ev := t.ev
	if ev == nil || ev.gen != t.gen || ev.state != evScheduled {
		return false
	}
	s := ev.sched
	s.unplace(ev)
	s.live--
	s.release(ev)
	return true
}

// Reset re-arms a still-pending timer to fire d after the current instant
// (negative d is clamped to zero), keeping its callback and its handle
// valid. It reports whether the timer was re-armed: a fired, stopped, or
// zero Timer is left untouched and Reset returns false, in which case the
// caller schedules afresh with After.
//
// Reset is exactly equivalent to a successful Stop followed by After with
// the same callback — it consumes one sequence number, so dispatch order
// is bit-for-bit identical — but re-slots the event in place instead of
// round-tripping it through the free list.
func (t Timer) Reset(d time.Duration) bool {
	ev := t.ev
	if ev == nil || ev.gen != t.gen || ev.state != evScheduled {
		return false
	}
	if d < 0 {
		d = 0
	}
	s := ev.sched
	s.unplace(ev)
	ev.at = s.now.Add(d)
	s.assignSeq(ev)
	s.place(ev)
	return true
}

// Pending reports whether the timer is scheduled and not yet fired or
// cancelled.
func (t Timer) Pending() bool {
	return t.ev != nil && t.ev.gen == t.gen && t.ev.state == evScheduled
}

// Scheduler is a deterministic discrete-event loop. All simulation
// components share one Scheduler and must be driven from a single
// goroutine.
//
// The pending set lives in three containers. Per-packet serialization and
// propagation events, armed through AfterFIFO and never cancelled, sit in
// per-delay FIFO lanes (lanes.go), each entry carrying its packet.
// Near-future events — delayed ACKs, RTO and probe deadlines, jittered
// deliveries — hash into O(1) slots of a hierarchical timing wheel
// (wheel.go); far-future events (flap schedules, experiment end markers)
// go to a small 4-ary min-heap
// and migrate into the wheel as the clock approaches. The run loop fires
// the smaller (at, seq) of the earliest lane head and the wheel/overflow
// minimum, so dispatch order does not depend on the container. A cancelled
// event leaves its wheel slot eagerly; a stale heap entry is recognized by
// seq mismatch. Events and lane rings are recycled, and Clear keeps them
// for the scheduler's next run: no steady-state allocations, across the
// cells a reused scheduler runs too.
type Scheduler struct {
	now     Time
	seq     uint64
	live    int
	fired   uint64
	running bool
	stopped bool
	// cfg is what s was built with; it sits with the fields every dispatch
	// reads.
	cfg Config

	wheel    wheel
	overflow []heapEntry
	heapLive int // armed events currently resident in the overflow heap
	free     []*event

	// Release queues (releases.go): queued counts their values waiting
	// behind each queue's armed minimum, so live stays every pending callback.
	releases []releaseChecker
	queued   int

	// FIFO lanes: laneMask bit i says lanes.lanes[i] holds events; laneLive counts them all.
	lanes    *laneSet
	laneMask uint32
	laneLive int
	// laneGen is the lane generation Lane handles name (see Lane): it moves
	// on at every admission and takeover, and at every Clear.
	laneGen uint64
	stats   Stats
	// Wheel synchronization keys: cascadeKey[l] tracks now>>levelShift(l)
	// so crossing a level's slot boundary cascades that level's current
	// slot exactly once; spanKey tracks now>>wheelSpanShift to migrate
	// overflow events that came within the wheel span. Both preserve the
	// strict level ordering findMin relies on.
	cascadeKey [wheelLevels]uint64
	spanKey    uint64
}

// Config is what a scheduler is built with and keeps through Clear.
// Neither setting changes which event fires when, so neither shapes a
// simulated byte.
type Config struct {
	// NoLanes serves every AfterFIFO from the timing wheel, as if no delay
	// had earned a lane: the reference the lanes are tested against.
	NoLanes bool
	// Checks arms the invariant checks: cheap assertions on the hot paths
	// (accounting at every dispatch here, packet-pool discipline in
	// netsim, retransmission bounds in tcp, the hybrid sweep's oracle)
	// that panic with a diagnostic instead of silently corrupting results.
	Checks bool
}

// defaultConfig is NewScheduler's: the checks are armed when the
// TCPTRIM_INVARIANTS environment variable is non-empty (the CI test jobs
// set it). It is read once and never written.
var defaultConfig = Config{Checks: os.Getenv("TCPTRIM_INVARIANTS") != ""}

// NewScheduler returns an empty scheduler positioned at Start, built with
// the default configuration.
func NewScheduler() *Scheduler { return NewSchedulerWith(defaultConfig) }

// NewSchedulerWith returns an empty scheduler positioned at Start, built
// with c.
func NewSchedulerWith(c Config) *Scheduler {
	s := &Scheduler{cfg: c}
	s.Clear()
	return s
}

// Config returns the configuration s was built with.
func (s *Scheduler) Config() Config { return s.cfg }

// Clear returns s to what it was built as: clock and sequence number at
// zero, nothing pending, Stats zeroed, its Config kept. Every pending
// event is dropped and its Timer goes dead, and release queues made on s
// are forgotten. What s grew is kept: the event free list, the lane
// rings, and the capacity of the overflow heap and of the release-queue
// list. It must not be called while s runs.
func (s *Scheduler) Clear() {
	if s.running {
		panic("sim: Clear called from inside the run loop")
	}
	for l := range s.wheel.occ {
		for wi, word := range s.wheel.occ[l] {
			for ; word != 0; word &= word - 1 {
				for ev := s.wheel.slots[l][wi<<6+bits.TrailingZeros64(word)]; ev != nil; {
					next := ev.next
					ev.next, ev.prev = nil, nil
					s.release(ev)
					ev = next
				}
			}
		}
	}
	for i, e := range s.overflow {
		if e.ev.seq == e.seq && e.ev.state == evScheduled {
			s.release(e.ev)
		}
		s.overflow[i] = heapEntry{}
	}
	clear(s.releases)
	if s.lanes != nil {
		s.lanes.clear()
	}
	*s = Scheduler{
		overflow: s.overflow[:0],
		free:     s.free,
		releases: s.releases[:0],
		lanes:    s.lanes,
		laneGen:  s.laneGen + 1,
		cfg:      s.cfg,
	}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Len returns the number of live pending events: scheduled callbacks that
// have neither fired nor been cancelled, a value waiting in a Releases
// queue included.
func (s *Scheduler) Len() int { return s.live }

// Fired returns the total number of events executed so far.
func (s *Scheduler) Fired() uint64 { return s.fired }

// Stats are the scheduler's own counters; no table or cache key sees them.
type Stats struct {
	FiredLane, FiredWheel, FiredOverflow uint64 // events fired, by container
	Lanes                                int    // lanes in use
	FIFONoLane                           uint64 // AfterFIFO calls that went to the wheel: no lane (yet)
	LaneHandleMisses                     uint64 // AfterFIFO calls whose Lane handle did not hold: the lane was looked up
	Cascades, Migrations, Rescans        uint64 // upper slots cascaded, overflow events migrated, findMin rescans
}

// Stats returns the scheduler's counters so far.
func (s *Scheduler) Stats() Stats {
	st := s.stats
	st.FiredWheel = s.fired - st.FiredLane - st.FiredOverflow
	st.Cascades, st.Rescans = s.wheel.cascades, s.wheel.rescans
	return st
}

// At schedules fn to run at the absolute instant t. Scheduling in the past
// returns ErrPastEvent; scheduling at the current instant is allowed and
// runs after all previously scheduled events for that instant.
func (s *Scheduler) At(t Time, fn func()) (Timer, error) {
	return s.arm(t, fn, nil, nil)
}

// AtArg is At in the argument form: fn(arg) runs at t. A component that
// arms many timers of one kind passes a package function and its object
// as arg, and binds no closure per object. The Timer, the sequence number
// drawn and the dispatch order are At's.
func (s *Scheduler) AtArg(t Time, fn func(unsafe.Pointer), arg unsafe.Pointer) (Timer, error) {
	return s.arm(t, nil, fn, arg)
}

// After schedules fn to run d after the current instant. Negative d is
// clamped to zero.
func (s *Scheduler) After(d time.Duration, fn func()) Timer {
	return s.afterArm(d, fn, nil, nil)
}

// AfterArg is After in the argument form: fn(arg) runs d after the
// current instant (see AtArg).
func (s *Scheduler) AfterArg(d time.Duration, fn func(unsafe.Pointer), arg unsafe.Pointer) Timer {
	return s.afterArm(d, nil, fn, arg)
}

// arm files one event with its callback in either form.
func (s *Scheduler) arm(t Time, fn func(), afn func(unsafe.Pointer), arg unsafe.Pointer) (Timer, error) {
	if t < s.now {
		return Timer{}, ErrPastEvent
	}
	ev := s.alloc(t, fn)
	ev.afn, ev.arg = afn, arg
	s.place(ev)
	s.live++
	return Timer{ev: ev, gen: ev.gen}, nil
}

// afterArm is arm at d from now, d clamped to zero.
func (s *Scheduler) afterArm(d time.Duration, fn func(), afn func(unsafe.Pointer), arg unsafe.Pointer) Timer {
	if d < 0 {
		d = 0
	}
	timer, err := s.arm(s.now.Add(d), fn, afn, arg)
	if err != nil {
		// Unreachable: now+|d| is never in the past. Keep the event loop
		// alive regardless.
		return Timer{}
	}
	return timer
}

// Stop halts the run loop after the event currently executing returns.
func (s *Scheduler) Stop() { s.stopped = true }

// PeekTime returns the firing instant of the earliest pending event, or
// End when the queue is empty. It costs one wheel findMin (cached, else
// O(occupancy of the earliest slot), see wheel.go).
func (s *Scheduler) PeekTime() Time { return s.drive(End, 0) }

// Step executes the single earliest pending event. It reports whether an
// event was executed.
func (s *Scheduler) Step() bool {
	fired := s.fired
	s.drive(End, 1)
	return s.fired != fired
}

// RunUntil executes events in order until the queue is empty, the horizon
// t is passed, or Stop is called. Time is left at the later of the last
// executed event and t (when the horizon was reached with events pending,
// time advances to t exactly).
func (s *Scheduler) RunUntil(t Time) {
	if s.running {
		return
	}
	s.running = true
	s.stopped = false
	defer func() { s.running = false }()

	next := s.drive(t, ^uint64(0))
	if t != End && (s.live == 0 || !s.stopped && next > t) {
		s.advanceTo(t)
	}
}

// Run executes events until the queue is empty or Stop is called.
func (s *Scheduler) Run() { s.RunUntil(End) }

// drive is the run loop. It fires pending events in (at, seq) order, the
// earliest lane head or else the wheel/overflow minimum, while the earliest
// is not after t, at most n of them, and stops after an event that called
// Stop. It returns the instant of the earliest event left pending, End when
// none is (with n zero it only looks), or after a Stop the instant of the
// event that called it.
func (s *Scheduler) drive(t Time, n uint64) Time {
	for {
		// The wheel's cached minimum, when known, is peekEvent's answer.
		ev := s.wheel.min
		if ev == nil {
			ev = s.peekEvent()
		}
		at, seq := End, ^uint64(0)
		if ev != nil {
			at, seq = ev.at, ev.seq
		}
		best := -1
		if m := s.laneMask; m != 0 {
			ls := s.lanes
			for ; m != 0; m &= m - 1 {
				i := bits.TrailingZeros32(m) & (maxLanes - 1)
				if hat := ls.headAt[i]; hat < at || (hat == at && ls.headSeq[i] < seq) {
					best, at, seq = i, hat, ls.headSeq[i]
				}
			}
		}
		if n == 0 || at > t || (best < 0 && ev == nil) {
			return at
		}
		n--
		if best >= 0 {
			s.fireLane(&s.lanes.lanes[best])
		} else {
			s.dispatch(ev)
		}
		if s.stopped {
			return at
		}
	}
}

// advanceTo moves the clock forward without dispatching, keeping the
// wheel synchronized so later insertions address against the new instant.
// Level 2 and the wheel span are coarser than level 1, so their keys move
// only when level 1's does: one compare tells whether there is anything to
// sync.
func (s *Scheduler) advanceTo(t Time) {
	if t > s.now {
		s.now = t
		if uint64(t)>>(granShift+wheelBits) != s.cascadeKey[1] { // levelShift(1)
			s.syncWheel()
		}
	}
}

// dispatch removes ev from its container, advances the clock to its
// instant, and runs its callback.
func (s *Scheduler) dispatch(ev *event) {
	if s.cfg.Checks {
		s.verifyAccounting(ev.at, ev.seq)
	}
	switch ev.where {
	case placeWheel:
		s.wheel.remove(ev)
	case placeHeap:
		// peekEvent returns a heap event only when it is the valid top.
		s.overflowPop()
		s.heapLive--
		s.stats.FiredOverflow++
		ev.where = placeNone
	}
	s.advanceTo(ev.at)
	s.fired++
	s.live--
	fn, afn, arg := ev.fn, ev.afn, ev.arg
	s.release(ev)
	if afn != nil {
		afn(arg)
		return
	}
	fn()
}

// peekEvent returns the earliest pending event without executing it,
// discarding stale overflow entries along the way.
func (s *Scheduler) peekEvent() *event {
	if ev := s.wheel.findMin(s.now); ev != nil {
		return ev
	}
	// The wheel is empty; after migration every heap event is beyond the
	// wheel span, so a valid top is the global minimum.
	for len(s.overflow) > 0 {
		e := s.overflow[0]
		if e.ev.seq == e.seq && e.ev.state == evScheduled {
			return e.ev
		}
		s.overflowPop()
	}
	return nil
}

// place files an armed event into the wheel or, beyond the wheel span,
// the overflow heap.
func (s *Scheduler) place(ev *event) {
	if uint64(ev.at^s.now)>>wheelSpanShift != 0 {
		s.overflowPush(heapEntry{at: ev.at, seq: ev.seq, ev: ev})
		ev.where = placeHeap
		s.heapLive++
		return
	}
	s.wheel.insert(ev, s.now)
}

// unplace detaches a still-armed event from its container: wheel slots
// compact eagerly, heap entries go stale and are discarded when popped.
func (s *Scheduler) unplace(ev *event) {
	switch ev.where {
	case placeWheel:
		s.wheel.remove(ev)
	case placeHeap:
		s.heapLive--
		ev.where = placeNone
	}
}

// syncWheel re-synchronizes the wheel with the clock. Whenever the clock
// crosses a level's slot boundary, that level's now-current slot cascades
// into lower levels; whenever it crosses the wheel-span boundary,
// overflow events within reach migrate into the wheel. Called on every
// clock advance, it restores the invariant that each level's events all
// fire before the next level's — the ordering findMin depends on.
func (s *Scheduler) syncWheel() {
	if k := uint64(s.now) >> wheelSpanShift; k != s.spanKey {
		s.spanKey = k
		s.migrateOverflow()
	}
	for l := wheelLevels - 1; l >= 1; l-- {
		if k := uint64(s.now) >> levelShift(l); k != s.cascadeKey[l] {
			s.cascadeKey[l] = k
			s.wheel.cascade(l, int(k)&wheelMask, s.now)
		}
	}
}

// migrateOverflow drains overflow events that are now within the wheel
// span into the wheel, discarding stale entries as they surface.
func (s *Scheduler) migrateOverflow() {
	for len(s.overflow) > 0 {
		e := s.overflow[0]
		valid := e.ev.seq == e.seq && e.ev.state == evScheduled
		if valid && uint64(e.at^s.now)>>wheelSpanShift != 0 {
			return
		}
		s.overflowPop()
		if valid {
			s.heapLive--
			s.stats.Migrations++
			s.wheel.insert(e.ev, s.now)
		}
	}
}

// alloc takes an event off the free list (or allocates one) and arms it.
func (s *Scheduler) alloc(at Time, fn func()) *event {
	ev := s.newEvent()
	ev.at = at
	ev.fn = fn
	ev.state = evScheduled
	s.assignSeq(ev)
	return ev
}

// newEvent takes an event off the free list, or allocates one.
func (s *Scheduler) newEvent() *event {
	if n := len(s.free); n > 0 {
		ev := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return ev
	}
	return &event{sched: s}
}

// assignSeq hands ev the next sequence number for this arming.
func (s *Scheduler) assignSeq(ev *event) {
	ev.seq = s.seq
	s.seq++
}

// release recycles a fired or cancelled event. Bumping gen invalidates
// every Timer handle that still references this event.
func (s *Scheduler) release(ev *event) {
	ev.gen++
	ev.fn, ev.afn, ev.arg = nil, nil, nil
	ev.state = evDone
	ev.where = placeNone
	s.free = append(s.free, ev)
}

// verifyAccounting runs the per-event invariant assertions on the event
// about to fire: the clock never goes backwards, and the live-event
// accounting covers wheel slots, the overflow heap, the lanes and the
// values queued unarmed in release queues exactly.
func (s *Scheduler) verifyAccounting(at Time, seq uint64) {
	if at < s.now {
		panic(fmt.Sprintf(
			"sim: time went backwards: event seq=%d at=%v fired at now=%v (wheel=%d overflow=%d lanes=%d queued=%d live=%d fired=%d)",
			seq, at, s.now, s.wheel.count, s.heapLive, s.laneLive, s.queued, s.live, s.fired))
	}
	if s.live != s.wheel.count+s.heapLive+s.laneLive+s.queued {
		panic(fmt.Sprintf(
			"sim: live-event accounting drift: live=%d but wheel=%d + overflow=%d + lanes=%d + queued=%d at now=%v",
			s.live, s.wheel.count, s.heapLive, s.laneLive, s.queued, s.now))
	}
}

// CheckAccounting walks the wheel slots (by bitmap word: lists are followed
// only under set bits), the overflow heap, the lanes and the release queues
// and verifies the scheduler's structural invariants: occupancy bitmaps
// match slot lists, every armed event is addressed where its bookkeeping
// says, nothing is scheduled before the clock or the cached wheel minimum,
// lanes are sorted, each release queue's armed event is its heap minimum,
// and the live count equals the events and queued values actually stored. It panics with a
// diagnostic on violation. Like netsim's packet-conservation checker it must
// run between events; the chaos harness schedules it when checks are armed.
func (s *Scheduler) CheckAccounting() {
	inWheel := 0
	min := s.wheel.min
	for l := 0; l < wheelLevels; l++ {
		for wi, word := range s.wheel.occ[l] {
			heads := s.wheel.slots[l][wi<<6 : wi<<6+64]
			if word == 0 && *(*[64]*event)(heads) == ([64]*event{}) {
				continue // one compare clears 64 empty slots
			}
			for i, head := range heads {
				idx := wi<<6 + i
				if occupied := word&(1<<uint(i)) != 0; occupied != (head != nil) {
					panic(fmt.Sprintf(
						"sim: wheel occupancy bitmap drift at level %d slot %d (bit=%v head=%v)",
						l, idx, occupied, head != nil))
				}
				for ev := head; ev != nil; ev = ev.next {
					if ev.state != evScheduled || ev.where != placeWheel ||
						int(ev.level) != l || int(ev.slot) != idx {
						panic(fmt.Sprintf(
							"sim: misfiled wheel event seq=%d state=%d where=%d level=%d slot=%d found at level %d slot %d",
							ev.seq, ev.state, ev.where, ev.level, ev.slot, l, idx))
					}
					if ev.at < s.now {
						panic(fmt.Sprintf(
							"sim: wheel event seq=%d at=%v is before now=%v", ev.seq, ev.at, s.now))
					}
					if min != nil && eventLess(ev, min) {
						panic(fmt.Sprintf("sim: wheel event seq=%d at=%v precedes the cached minimum seq=%d at=%v", ev.seq, ev.at, min.seq, min.at))
					}
					inWheel++
				}
			}
		}
	}
	if inWheel != s.wheel.count {
		panic(fmt.Sprintf("sim: wheel count drift: stored %d events, count says %d",
			inWheel, s.wheel.count))
	}
	inHeap := 0
	for _, e := range s.overflow {
		if e.ev.seq != e.seq || e.ev.state != evScheduled {
			continue // stale entry awaiting lazy discard
		}
		if e.ev.where != placeHeap {
			panic(fmt.Sprintf(
				"sim: overflow entry seq=%d references an event filed at %d", e.seq, e.ev.where))
		}
		if e.at < s.now {
			panic(fmt.Sprintf("sim: overflow event seq=%d at=%v is before now=%v",
				e.seq, e.at, s.now))
		}
		inHeap++
	}
	if inHeap != s.heapLive {
		panic(fmt.Sprintf("sim: overflow count drift: %d live entries, heapLive says %d",
			inHeap, s.heapLive))
	}
	s.checkLanes()
	queued := 0
	for _, q := range s.releases {
		queued += q.checkReleases()
	}
	if queued != s.queued {
		panic(fmt.Sprintf("sim: release queue count drift: %d values wait unarmed, queued says %d", queued, s.queued))
	}
	if s.live != s.wheel.count+s.heapLive+s.laneLive+s.queued {
		panic(fmt.Sprintf("sim: live-event accounting drift: live=%d but wheel=%d + overflow=%d + lanes=%d + queued=%d",
			s.live, s.wheel.count, s.heapLive, s.laneLive, s.queued))
	}
}

// WalkFIFO calls visit with the callback and argument of every pending
// event armed in the argument form (AfterFIFO, AtArg, AfterArg), wherever
// it is stored: lanes, wheel slots, the overflow heap. A Releases queue's armed minimum is such
// an event too, visited with the queue's own callback and the queue as its
// argument (the values behind it are not visited). The order is
// unspecified. It is for invariant checks between events, not for the hot
// path. Wheel slots are found through the occupancy bitmaps, which
// CheckAccounting verifies against the slot lists.
func (s *Scheduler) WalkFIFO(visit func(fn func(unsafe.Pointer), arg unsafe.Pointer)) {
	for i := 0; s.lanes != nil && i < s.lanes.n; i++ {
		l := &s.lanes.lanes[i]
		for k := 0; k < l.n; k++ {
			e := &l.buf[(l.head+k)&(len(l.buf)-1)]
			visit(e.fn, e.arg)
		}
	}
	for l := range s.wheel.occ {
		for wi, word := range s.wheel.occ[l] {
			for ; word != 0; word &= word - 1 {
				for ev := s.wheel.slots[l][wi<<6+bits.TrailingZeros64(word)]; ev != nil; ev = ev.next {
					if ev.afn != nil {
						visit(ev.afn, ev.arg)
					}
				}
			}
		}
	}
	for _, e := range s.overflow {
		if e.ev.seq == e.seq && e.ev.state == evScheduled && e.ev.afn != nil {
			visit(e.ev.afn, e.ev.arg)
		}
	}
}

// --- Overflow heap ------------------------------------------------------
//
// A 4-ary min-heap on (at, seq) holding the far-future tail: entries are
// small values so cancellation can simply abandon them — a stale entry
// (its event re-armed with a new seq, or cancelled and recycled) is
// recognized and dropped when it reaches the top. The wider fan-out
// halves the tree depth versus a binary heap; the heap stays tiny (flap
// schedules, experiment end markers), so these ops are off the hot path.

// heapEntry pins the (at, seq) key an event carried when it was pushed;
// seq is globally unique per arming, so a mismatch with the event's
// current seq marks the entry stale.
type heapEntry struct {
	at  Time
	seq uint64
	ev  *event
}

func entryLess(a, b heapEntry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

func (s *Scheduler) overflowPush(e heapEntry) {
	s.overflow = append(s.overflow, e)
	h := s.overflow
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !entryLess(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (s *Scheduler) overflowPop() heapEntry {
	h := s.overflow
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = heapEntry{}
	s.overflow = h[:n]
	h = s.overflow
	i := 0
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if entryLess(h[c], h[min]) {
				min = c
			}
		}
		if !entryLess(h[min], h[i]) {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	return top
}
