package sim

import "math/bits"

// Hierarchical timing wheel: the scheduler's store for near-future events
// that may be cancelled or re-armed (RTO, delayed-ACK and probe timers,
// jittered deliveries) and for what AfterFIFO could not put in a lane.
//
// Virtual time is hashed into wheelLevels levels of wheelSlots slots each.
// Level 0 slots are 2^granShift ns wide (~1µs), and each higher level's
// slots are wheelSlots times wider, so the wheel spans 2^wheelSpanShift ns
// (~17.2s) around the current instant. An event lands in the lowest level
// whose resolution still separates it from "now"; everything beyond the
// span overflows to a small auxiliary heap (see scheduler.go).
//
// The level of an event is derived from at XOR now: the position of the
// highest differing bit tells which level's slot walk first reaches the
// event. Because simulated time only moves forward and never past a
// pending event, every occupied slot sits at or after the current index of
// its level, so "find the earliest event" is a bitmap scan from the
// current index — no slot ever wraps behind the clock.
//
// Two properties make the wheel exact rather than approximate:
//
//   - Strict level ordering. After the scheduler's syncWheel pass (which
//     cascades the current slot of each upper level whenever the clock
//     crosses that level's slot boundary), every level-l event fires
//     before every level-(l+1) event, so the global minimum is the
//     earliest event of the lowest occupied level.
//   - In-slot scan. Slots keep an unsorted intrusive doubly-linked list;
//     the minimum is found by a linear (at, seq) scan, so a findMin that
//     has to look is O(slot occupancy), not O(1). Same-instant events
//     compare by seq — preserving the scheduler's FIFO guarantee
//     bit-for-bit.
//
// findMin's answer is cached for the whole wheel: insert keeps it current
// with one comparison; only removing the cached event makes the next peek
// rescan. With per-packet
// events in lanes the earliest slot is usually a level-1 slot of hundreds of
// RTO timers, and the run loop peeks once per fired event (PERF_NOTES.md).
//
// Insert, remove (eager cancellation), and re-slot (Timer.Reset) are all
// O(1); cascading touches each event at most wheelLevels-1 times over its
// lifetime.

const (
	wheelBits   = 8
	wheelSlots  = 1 << wheelBits
	wheelMask   = wheelSlots - 1
	wheelLevels = 3
	// granShift sets the level-0 slot width: 2^10 ns ≈ 1µs, finer than
	// any per-packet spacing the simulated links produce at 10G.
	granShift = 10
	// wheelSpanShift bounds the wheel's reach: events whose instant
	// differs from the clock at or above this bit (≈17.2s) overflow to
	// the heap until the clock draws near.
	wheelSpanShift = granShift + wheelLevels*wheelBits

	wheelWords = wheelSlots / 64
)

// levelShift returns the bit position where level l's slot index starts.
func levelShift(l int) uint { return granShift + uint(l)*wheelBits }

// levelFor maps x = at XOR now to the wheel level that separates the two
// instants, or wheelLevels when the event is beyond the wheel span.
func levelFor(x uint64) int {
	switch {
	case x>>levelShift(1) == 0:
		return 0
	case x>>levelShift(2) == 0:
		return 1
	case x>>wheelSpanShift == 0:
		return 2
	}
	return wheelLevels
}

// wheel is the slot storage: per-level intrusive lists plus occupancy
// bitmaps so the earliest occupied slot is a few word scans away.
type wheel struct {
	slots             [wheelLevels][wheelSlots]*event
	occ               [wheelLevels][wheelWords]uint64
	count             int
	min               *event // findMin's cached answer; nil: unknown, or empty
	cascades, rescans uint64 // for Scheduler.Stats
}

func eventLess(a, b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// insert files ev into the slot addressed by its instant relative to now.
// The caller guarantees ev.at is within the wheel span of now.
func (w *wheel) insert(ev *event, now Time) {
	l := levelFor(uint64(ev.at ^ now))
	slot := int(uint64(ev.at)>>levelShift(l)) & wheelMask
	head := w.slots[l][slot]
	ev.prev = nil
	ev.next = head
	if head != nil {
		head.prev = ev
	}
	w.slots[l][slot] = ev
	w.occ[l][slot>>6] |= 1 << (uint(slot) & 63)
	ev.where = placeWheel
	ev.level = uint8(l)
	ev.slot = uint8(slot)
	if w.count == 0 || (w.min != nil && eventLess(ev, w.min)) {
		w.min = ev
	}
	w.count++
}

// remove unlinks ev from its slot eagerly — cancelled and re-slotted
// events never linger for dispatch to drain.
func (w *wheel) remove(ev *event) {
	if ev.prev != nil {
		ev.prev.next = ev.next
	} else {
		w.slots[ev.level][ev.slot] = ev.next
		if ev.next == nil {
			w.occ[ev.level][ev.slot>>6] &^= 1 << (uint(ev.slot) & 63)
		}
	}
	if ev.next != nil {
		ev.next.prev = ev.prev
	}
	ev.next, ev.prev = nil, nil
	ev.where = placeNone
	if w.min == ev {
		w.min = nil
	}
	w.count--
}

// findMin returns the earliest (at, seq) event in the wheel, or nil when
// empty. Levels are strictly ordered after syncWheel, so the first
// occupied slot of the lowest occupied level holds the minimum: a bitmap
// scan to find the slot, then a linear scan of its list.
func (w *wheel) findMin(now Time) *event {
	if w.count == 0 || w.min != nil {
		return w.min
	}
	w.rescans++
	for l := 0; l < wheelLevels; l++ {
		from := int(uint64(now)>>levelShift(l)) & wheelMask
		idx := nextSet(&w.occ[l], from)
		if idx < 0 {
			continue
		}
		best := w.slots[l][idx]
		for ev := best.next; ev != nil; ev = ev.next {
			if eventLess(ev, best) {
				best = ev
			}
		}
		w.min = best
		return best
	}
	panic("sim: timing wheel count positive but no occupied slot at or after the clock")
}

// cascade empties level l's slot idx into lower levels: the clock has
// entered the slot's span, so every event in it now lands strictly below
// level l when re-addressed against now.
func (w *wheel) cascade(l, idx int, now Time) {
	ev := w.slots[l][idx]
	if ev == nil {
		return
	}
	w.slots[l][idx] = nil
	w.occ[l][idx>>6] &^= 1 << (uint(idx) & 63)
	w.cascades++
	for ev != nil {
		next := ev.next
		w.count--
		w.insert(ev, now)
		ev = next
	}
}

// nextSet returns the first set bit index at or after from, or -1.
func nextSet(bm *[wheelWords]uint64, from int) int {
	wi := from >> 6
	word := bm[wi] &^ (1<<(uint(from)&63) - 1)
	for {
		if word != 0 {
			return wi<<6 + bits.TrailingZeros64(word)
		}
		wi++
		if wi == wheelWords {
			return -1
		}
		word = bm[wi]
	}
}
