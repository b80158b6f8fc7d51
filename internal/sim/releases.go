package sim

import (
	"fmt"
	"unsafe"
)

// Releases is a caller-owned queue of values waiting for their instants,
// all delivered to one callback: Push(at, v) is exactly
// At(at, func() { fn(v) }) — same instant, same sequence number drawn at
// the same moment, so the same dispatch order — but the value waits in a
// 4-ary min-heap of {at, seq, v} entries instead of as an event with its
// own closure. Only the heap minimum is armed in the scheduler, under the
// (at, seq) it reserved when pushed; when it fires the next minimum is
// armed under its own reserved key before fn runs, and a push that becomes
// the new minimum re-slots the armed event in place. The wheel, the
// overflow heap and the lanes order by (at, seq) alone, so moving values
// from events into a queue changes only how many events and closures are
// live.
//
// T should hold no pointers (indexes into the owner's tables, sizes), so
// that a heap of thousands of waiting values is never scanned by the
// collector. A queued value counts in Scheduler.Len like any pending
// callback; values are never cancelled.
type Releases[T any] struct {
	s     *Scheduler
	fn    func(T)
	afn   func(unsafe.Pointer) // fireReleases[T], bound once: a generic func value boxes anew each time it is taken
	h     []releaseEntry[T]
	armed *event // the event armed for h[0]; nil when h is empty
}

type releaseEntry[T any] struct {
	at  Time
	seq uint64
	v   T
}

func (a *releaseEntry[T]) less(b *releaseEntry[T]) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// releaseChecker lets CheckAccounting walk a scheduler's queues whatever
// their value type.
type releaseChecker interface {
	// checkReleases panics when the armed event is not the heap minimum
	// under its reserved key, or the heap is out of order, and returns the
	// number of queued values with no event armed.
	checkReleases() int
}

// NewReleases returns an empty queue on s whose values are delivered to fn.
func NewReleases[T any](s *Scheduler, fn func(T)) *Releases[T] {
	q := &Releases[T]{s: s, fn: fn, afn: fireReleases[T]}
	s.releases = append(s.releases, q)
	return q
}

// Len returns the number of values waiting.
func (q *Releases[T]) Len() int { return len(q.h) }

// Grow makes room for n more values without reallocating.
func (q *Releases[T]) Grow(n int) {
	if n > cap(q.h)-len(q.h) {
		h := make([]releaseEntry[T], len(q.h), len(q.h)+n)
		copy(h, q.h)
		q.h = h
	}
}

// Push schedules fn(v) at the absolute instant at, exactly as At would;
// at before the current instant returns ErrPastEvent.
func (q *Releases[T]) Push(at Time, v T) error {
	s := q.s
	if at < s.now {
		return ErrPastEvent
	}
	q.h = append(q.h, releaseEntry[T]{at: at, seq: s.seq, v: v})
	s.seq++
	s.live++
	if len(q.h) == 1 {
		q.arm()
		return nil
	}
	s.queued++
	if q.up(len(q.h)-1) == 0 {
		// The new minimum takes over the armed event: it was the old
		// minimum's, which now waits unarmed.
		ev := q.armed
		inHeap := ev.where == placeHeap
		s.unplace(ev)
		if inHeap {
			// ev leaves a stale overflow entry under the old minimum's
			// key, which is armed again when that value comes up. Were ev
			// recycled it could carry that key and revive the entry, so it
			// is retired: the entry drops the last reference when popped.
			ev.state, ev.afn, ev.arg = evDone, nil, nil
			q.arm()
			return nil
		}
		ev.at, ev.seq = q.h[0].at, q.h[0].seq
		s.place(ev)
	}
	return nil
}

// arm files an event for h[0] under its reserved key. The value is already
// counted live.
func (q *Releases[T]) arm() {
	ev := q.s.newEvent()
	ev.at, ev.seq = q.h[0].at, q.h[0].seq
	ev.afn, ev.arg = q.afn, unsafe.Pointer(q)
	ev.state = evScheduled
	q.s.place(ev)
	q.armed = ev
}

// fireReleases is a queue's event callback: its armed event has just been
// dispatched (and recycled, its key still readable) for h[0].
func fireReleases[T any](p unsafe.Pointer) {
	q := (*Releases[T])(p)
	s := q.s
	if invariantChecks.Load() && (len(q.h) == 0 || q.armed.at != q.h[0].at || q.armed.seq != q.h[0].seq) {
		panic(q.drift("fired"))
	}
	v := q.pop()
	if len(q.h) > 0 {
		s.queued--
		q.arm()
	} else {
		q.armed = nil
	}
	q.fn(v)
}

func (q *Releases[T]) drift(what string) string {
	top := releaseEntry[T]{}
	if len(q.h) > 0 {
		top = q.h[0]
	}
	return fmt.Sprintf("sim: release queue drift: %s event seq=%d at=%v, but the heap minimum is seq=%d at=%v (%d queued, now=%v)",
		what, q.armed.seq, q.armed.at, top.seq, top.at, len(q.h), q.s.now)
}

func (q *Releases[T]) checkReleases() int {
	if len(q.h) == 0 {
		if q.armed != nil {
			panic(fmt.Sprintf("sim: release queue drift: empty queue holds an armed event seq=%d", q.armed.seq))
		}
		return 0
	}
	ev := q.armed
	if ev == nil || ev.state != evScheduled || ev.where == placeNone || ev.afn == nil ||
		ev.arg != unsafe.Pointer(q) || ev.at != q.h[0].at || ev.seq != q.h[0].seq {
		panic(q.drift("armed"))
	}
	for i := 1; i < len(q.h); i++ {
		if q.h[i].less(&q.h[(i-1)>>2]) {
			panic(fmt.Sprintf("sim: release queue drift: entry %d (seq=%d at=%v) precedes its parent", i, q.h[i].seq, q.h[i].at))
		}
	}
	return len(q.h) - 1
}

// up sifts h[i] toward the root and returns where it settled.
func (q *Releases[T]) up(i int) int {
	h := q.h
	e := h[i]
	for i > 0 {
		parent := (i - 1) >> 2
		if !e.less(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
	return i
}

// pop removes and returns the minimum value.
func (q *Releases[T]) pop() T {
	h := q.h
	v := h[0].v
	n := len(h) - 1
	e := h[n]
	h[n] = releaseEntry[T]{}
	q.h = h[:n]
	if n == 0 {
		return v
	}
	h = h[:n]
	i := 0
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		min := first
		for c := first + 1; c < first+4 && c < n; c++ {
			if h[c].less(&h[min]) {
				min = c
			}
		}
		if !h[min].less(&e) {
			break
		}
		h[i] = h[min]
		i = min
	}
	h[i] = e
	return v
}
