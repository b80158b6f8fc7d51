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
// own closure. PushRun hands over a whole batch of values as a Run: it
// draws the sequence numbers a Push per value would, and the run waits as
// one entry per nondecreasing stretch of instants, a cursor into the
// caller's batch, in a second heap keyed by each stretch's next value.
// Only the minimum of the two heaps is armed in the scheduler, under the
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
	h     []releaseEntry[T]    // values pushed one by one
	runs  []runEntry[T]        // stretches of pushed runs
	n     int                  // values waiting, in h and in runs
	armed *event               // the event armed for the minimum; nil when the queue is empty
}

// Run is a batch of values handed to PushRun: Len values, the i-th due at
// At(i) and delivered as Value(i). The queue keeps the run itself, not
// copies of its values, and calls Value only when the value is released,
// so a run must not change while its values wait.
type Run[T any] interface {
	Len() int
	At(i int) Time
	Value(i int) T
}

type releaseEntry[T any] struct {
	at  Time
	seq uint64
	v   T
}

func (a *releaseEntry[T]) less(b *releaseEntry[T]) bool {
	return keyLess(a.at, a.seq, b.at, b.seq)
}

// runEntry is one nondecreasing stretch of a run: values [next, end) of r
// wait, released in index order, value next under the key (at, seq) and
// each later one under the next sequence number.
type runEntry[T any] struct {
	at        Time
	seq       uint64
	r         Run[T]
	next, end int
}

func (a *runEntry[T]) less(b *runEntry[T]) bool {
	return keyLess(a.at, a.seq, b.at, b.seq)
}

func keyLess(aAt Time, aSeq uint64, bAt Time, bSeq uint64) bool {
	return aAt < bAt || (aAt == bAt && aSeq < bSeq)
}

// releaseChecker lets CheckAccounting walk a scheduler's queues whatever
// their value type.
type releaseChecker interface {
	// checkReleases panics when the armed event is not the queue minimum
	// under its reserved key, a heap is out of order or a run's cursor
	// disagrees with its key, and returns the number of queued values
	// with no event armed.
	checkReleases() int
}

// NewReleases returns an empty queue on s whose values are delivered to fn.
func NewReleases[T any](s *Scheduler, fn func(T)) *Releases[T] {
	q := &Releases[T]{s: s, fn: fn, afn: fireReleases[T]}
	s.releases = append(s.releases, q)
	return q
}

// Len returns the number of values waiting.
func (q *Releases[T]) Len() int { return q.n }

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
	q.up(len(q.h) - 1)
	if q.n++; q.n == 1 {
		q.arm()
		return nil
	}
	s.queued++
	// The newest sequence number loses every tie, so the value is the new
	// minimum exactly when it is due before the armed one.
	if at < q.armed.at {
		q.reslot()
	}
	return nil
}

// PushRun schedules fn(r.Value(i)) at r.At(i) for each i in order, exactly
// as a Push per value would: value i takes the i-th of Len consecutive
// sequence numbers. It stops at the first value due before the current
// instant, and returns how many values it pushed and, when it stopped
// early, ErrPastEvent.
func (q *Releases[T]) PushRun(r Run[T]) (int, error) {
	s := q.s
	n, base := r.Len(), s.seq
	var err error
	start, first, prev := 0, End, Time(0)
	for i := 0; i < n; i++ {
		at := r.At(i)
		if at < s.now {
			n, err = i, ErrPastEvent
			break
		}
		if i > start && at < prev {
			q.addRun(r, start, i, base)
			start = i
		}
		if at < first {
			first = at
		}
		prev = at
	}
	if n == 0 {
		return 0, err
	}
	q.addRun(r, start, n, base)
	s.seq += uint64(n)
	s.live += n
	s.queued += n
	if q.n += n; q.n == n {
		s.queued--
		q.arm()
	} else if first < q.armed.at {
		q.reslot()
	}
	return n, err
}

// addRun files values [start, end) of r, whose sequence numbers count up
// from base, as one stretch.
func (q *Releases[T]) addRun(r Run[T], start, end int, base uint64) {
	q.runs = append(q.runs, runEntry[T]{at: r.At(start), seq: base + uint64(start), r: r, next: start, end: end})
	q.runUp(len(q.runs) - 1)
}

// runTop reports whether the queue minimum is a run's next value.
func (q *Releases[T]) runTop() bool {
	return len(q.runs) > 0 && (len(q.h) == 0 || keyLess(q.runs[0].at, q.runs[0].seq, q.h[0].at, q.h[0].seq))
}

// top returns the key of the queue minimum; the queue is not empty.
func (q *Releases[T]) top() (Time, uint64) {
	if q.runTop() {
		return q.runs[0].at, q.runs[0].seq
	}
	return q.h[0].at, q.h[0].seq
}

// arm files an event for the queue minimum under its reserved key. The
// value is already counted live.
func (q *Releases[T]) arm() {
	ev := q.s.newEvent()
	ev.at, ev.seq = q.top()
	ev.afn, ev.arg = q.afn, unsafe.Pointer(q)
	ev.state = evScheduled
	q.s.place(ev)
	q.armed = ev
}

// reslot hands the armed event to a value just pushed ahead of the old
// minimum, which now waits unarmed.
func (q *Releases[T]) reslot() {
	s := q.s
	ev := q.armed
	inHeap := ev.where == placeHeap
	s.unplace(ev)
	if inHeap {
		// ev leaves a stale overflow entry under the old minimum's key,
		// which is armed again when that value comes up. Were ev recycled
		// it could carry that key and revive the entry, so it is retired:
		// the entry drops the last reference when popped.
		ev.state, ev.afn, ev.arg = evDone, nil, nil
		q.arm()
		return
	}
	ev.at, ev.seq = q.top()
	s.place(ev)
}

// fireReleases is a queue's event callback: its armed event has just been
// dispatched (and recycled, its key still readable) for the minimum.
func fireReleases[T any](p unsafe.Pointer) {
	q := (*Releases[T])(p)
	s := q.s
	if invariantChecks.Load() {
		if msg := q.topDrift(); msg != "" {
			panic(q.drift("fired", msg))
		}
	}
	var v T
	if q.runTop() {
		v = q.popRun()
	} else {
		v = q.pop()
	}
	if q.n--; q.n > 0 {
		s.queued--
		q.arm()
	} else {
		q.armed = nil
	}
	q.fn(v)
}

// topDrift describes how the armed key disagrees with the queue minimum,
// or a run minimum's key with its cursor; "" when they agree.
func (q *Releases[T]) topDrift() string {
	if q.n == 0 {
		return "the queue is empty"
	}
	at, seq := q.top()
	if q.armed.at != at || q.armed.seq != seq {
		return fmt.Sprintf("the minimum is seq=%d at=%v", seq, at)
	}
	if q.runTop() {
		if e := &q.runs[0]; e.at != e.r.At(e.next) {
			return fmt.Sprintf("the minimum run's cursor %d is due at %v", e.next, e.r.At(e.next))
		}
	}
	return ""
}

func (q *Releases[T]) drift(what, msg string) string {
	return fmt.Sprintf("sim: release queue drift: %s event seq=%d at=%v, but %s (%d queued, %d runs, now=%v)",
		what, q.armed.seq, q.armed.at, msg, q.n, len(q.runs), q.s.now)
}

func (q *Releases[T]) checkReleases() int {
	if q.n == 0 {
		if q.armed != nil || len(q.h) > 0 || len(q.runs) > 0 {
			panic(fmt.Sprintf("sim: release queue drift: empty queue holds %d values, %d runs, armed %v", len(q.h), len(q.runs), q.armed != nil))
		}
		return 0
	}
	count := len(q.h)
	for i := range q.runs {
		e := &q.runs[i]
		if e.next < 0 || e.next >= e.end || e.end > e.r.Len() || e.at != e.r.At(e.next) {
			panic(fmt.Sprintf("sim: release queue drift: run %d has cursor %d of [%d) keyed at=%v", i, e.next, e.end, e.at))
		}
		if i > 0 && e.less(&q.runs[(i-1)>>2]) {
			panic(fmt.Sprintf("sim: release queue drift: run %d (seq=%d at=%v) precedes its parent", i, e.seq, e.at))
		}
		count += e.end - e.next
	}
	if count != q.n {
		panic(fmt.Sprintf("sim: release queue drift: %d values wait, the queue counts %d", count, q.n))
	}
	ev := q.armed
	if ev == nil || ev.state != evScheduled || ev.where == placeNone || ev.afn == nil || ev.arg != unsafe.Pointer(q) {
		panic(fmt.Sprintf("sim: release queue drift: %d values wait behind no armed event", q.n))
	}
	if msg := q.topDrift(); msg != "" {
		panic(q.drift("armed", msg))
	}
	for i := 1; i < len(q.h); i++ {
		if q.h[i].less(&q.h[(i-1)>>2]) {
			panic(fmt.Sprintf("sim: release queue drift: entry %d (seq=%d at=%v) precedes its parent", i, q.h[i].seq, q.h[i].at))
		}
	}
	return q.n - 1
}

// up sifts h[i] toward the root.
func (q *Releases[T]) up(i int) {
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
}

// pop removes and returns the minimum value pushed by Push.
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

// popRun releases the next value of the minimum run, which moves on to
// its following value or, spent, leaves the heap.
func (q *Releases[T]) popRun() T {
	e := &q.runs[0]
	v := e.r.Value(e.next)
	if e.next++; e.next < e.end {
		e.at = e.r.At(e.next)
		e.seq++
	} else {
		last := len(q.runs) - 1
		q.runs[0] = q.runs[last]
		q.runs[last] = runEntry[T]{}
		q.runs = q.runs[:last]
		if last == 0 {
			return v
		}
	}
	q.runDown(0)
	return v
}

// runUp sifts runs[i] toward the root.
func (q *Releases[T]) runUp(i int) {
	h := q.runs
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
}

// runDown sifts runs[i] toward the leaves.
func (q *Releases[T]) runDown(i int) {
	h := q.runs
	n := len(h)
	e := h[i]
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
}
