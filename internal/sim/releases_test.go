package sim

import (
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// relValue is what the differential pushes: an id, and the delay of a child
// the release pushes onto its own queue from inside its callback (0: none).
type relValue struct {
	id    int32
	child int32 // µs + 1
}

type relTrace struct {
	id int32
	q  int8
	at Time
}

// relResult is what one program leaves behind on the queue side.
type relResult struct {
	trace []relTrace
	now   Time
	fired uint64
	stats Stats
	// Run pushes: values pushed, runs stopped by a past instant, and the
	// stretches the runs split into beyond one each.
	runValues, runsPast, runSplits int
}

// relRun is a run of values for PushRun.
type relRun struct {
	ats  []Time
	vals []relValue
}

func (r *relRun) Len() int             { return len(r.ats) }
func (r *relRun) At(i int) Time        { return r.ats[i] }
func (r *relRun) Value(i int) relValue { return r.vals[i] }

// Release-program opcodes, each followed by its operands. A plain program
// draws from the first relOpCount (op byte modulo relOpCount), the
// encoding FuzzReleases' corpus was grown against; a program whose first
// byte is progRuns draws from all relOpRunsCount, run pushes included.
const (
	relOpAfter    = iota // u16 µs
	relOpStop            // timer index
	relOpReset           // timer index, u16 µs
	relOpFIFO            // delay index, chain length: recurring AfterFIFO
	relOpPush            // queue, u16 µs
	relOpPushNow         // queue: at the current instant
	relOpPushSame        // queue, count: several pushes at one instant
	relOpPushFar         // queue, seconds: beyond the wheel span
	relOpPushPast        // queue: one nanosecond before now
	relOpPushNest        // queue, u16 µs parent, u16 µs child pushed from the callback
	relOpRunUntil        // u16 µs horizon
	relOpStep            // one Step on each side
	relOpCount

	relQueues = 3
)

const (
	relOpRun       = relOpCount + iota // queue, length, then one byte per value: µs from now, 0xFF one nanosecond before now
	relOpRunsCount                     // ops of a progRuns program

	progRuns = 0xFF // first byte of a program using all relOpRunsCount ops
)

// runReleasesDiff decodes data into a program and runs it on two
// schedulers in lockstep: one pushes onto Releases queues, the other calls
// At with a closure per push, which is what Push promises to be. Dispatch
// traces, clocks, PeekTime, Len, Fired and every verdict must agree.
func runReleasesDiff(t *testing.T, data []byte, cfg Config) relResult {
	t.Helper()
	const maxOps = 2048
	got, want := NewSchedulerWith(cfg), NewSchedulerWith(cfg)
	var gotTrace, wantTrace []relTrace

	type timerPair struct{ g, w Timer }
	var timers []timerPair
	nextID := int32(0)

	// The At side's release of v from queue q, child included.
	var wantRelease func(q int8, v relValue) func()
	wantRelease = func(q int8, v relValue) func() {
		return func() {
			wantTrace = append(wantTrace, relTrace{v.id, q, want.Now()})
			if v.child > 0 {
				c := relValue{id: -v.id - 1}
				if _, err := want.At(want.Now().Add(time.Duration(v.child-1)*time.Microsecond), wantRelease(q, c)); err != nil {
					t.Fatalf("nested At: %v", err)
				}
			}
		}
	}
	queues := make([]*Releases[relValue], relQueues)
	for i := range queues {
		q := int8(i)
		queues[i] = NewReleases(got, func(v relValue) {
			gotTrace = append(gotTrace, relTrace{v.id, q, got.Now()})
			if v.child > 0 {
				c := relValue{id: -v.id - 1}
				if err := queues[q].Push(got.Now().Add(time.Duration(v.child-1)*time.Microsecond), c); err != nil {
					t.Fatalf("nested Push: %v", err)
				}
			}
		})
	}
	var res relResult
	// pushRun hands the values due at ats to PushRun on one side and to one
	// At each, in order, on the other, which stops at the first past one.
	pushRun := func(op, q int, ats []Time, children []int32) {
		r := &relRun{ats: ats}
		for i := range ats {
			r.vals = append(r.vals, relValue{id: nextID, child: children[i]})
			nextID++
		}
		runs := len(queues[q].runs)
		n, gErr := queues[q].PushRun(r)
		pushed, wErr := 0, error(nil)
		for i, at := range ats {
			if _, wErr = want.At(at, wantRelease(int8(q), r.vals[i])); wErr != nil {
				break
			}
			pushed++
		}
		if n != pushed || gErr != wErr {
			t.Fatalf("op %d: PushRun of %d = %d, %v; one At each pushed %d, %v", op, len(ats), n, gErr, pushed, wErr)
		}
		res.runValues += n
		if gErr != nil {
			res.runsPast++
		}
		if n > 0 {
			// Stretches pushed beyond one; spent stretches cannot leave the
			// heap while pushing, so the growth counts them all.
			res.runSplits += len(queues[q].runs) - runs - 1
		}
	}
	push := func(op, q int, at Time, child int32) {
		v := relValue{id: nextID, child: child}
		nextID++
		gErr := queues[q].Push(at, v)
		_, wErr := want.At(at, wantRelease(int8(q), v))
		if gErr != wErr {
			t.Fatalf("op %d: Push(%v) = %v, At = %v", op, at, gErr, wErr)
		}
	}
	fifo := func(d time.Duration, chain int) {
		id := nextID
		nextID++
		var gfn func(unsafe.Pointer)
		var wfn func()
		gstep, wstep := int32(0), int32(0)
		gfn = func(unsafe.Pointer) {
			gotTrace = append(gotTrace, relTrace{id + gstep<<20, -1, got.Now()})
			if gstep++; int(gstep) <= chain {
				got.AfterFIFO(nil, d, gfn, nil)
			}
		}
		wfn = func() {
			wantTrace = append(wantTrace, relTrace{id + wstep<<20, -1, want.Now()})
			if wstep++; int(wstep) <= chain {
				want.AfterFIFO(nil, d, func(unsafe.Pointer) { wfn() }, nil)
			}
		}
		got.AfterFIFO(nil, d, gfn, nil)
		want.AfterFIFO(nil, d, func(unsafe.Pointer) { wfn() }, nil)
	}

	pos, ops := 0, byte(relOpCount)
	if len(data) > 0 && data[0] == progRuns {
		pos, ops = 1, relOpRunsCount
	}
	next := func() (byte, bool) {
		if pos >= len(data) {
			return 0, false
		}
		pos++
		return data[pos-1], true
	}
	next16 := func() (uint16, bool) {
		hi, ok := next()
		if !ok {
			return 0, false
		}
		lo, ok := next()
		return uint16(hi)<<8 | uint16(lo), ok
	}
	for op := 0; op < maxOps; op++ {
		b, ok := next()
		if !ok {
			break
		}
		switch b % ops {
		case relOpAfter:
			us, ok := next16()
			if !ok {
				break
			}
			id := nextID
			nextID++
			d := time.Duration(us) * time.Microsecond
			timers = append(timers, timerPair{
				g: got.After(d, func() { gotTrace = append(gotTrace, relTrace{id, -1, got.Now()}) }),
				w: want.After(d, func() { wantTrace = append(wantTrace, relTrace{id, -1, want.Now()}) }),
			})
		case relOpStop:
			i, ok := next()
			if !ok || len(timers) == 0 {
				break
			}
			p := timers[int(i)%len(timers)]
			if g, w := p.g.Stop(), p.w.Stop(); g != w {
				t.Fatalf("op %d: Stop verdicts diverge: releases=%v at=%v", op, g, w)
			}
		case relOpReset:
			i, ok := next()
			if !ok || len(timers) == 0 {
				break
			}
			us, ok := next16()
			if !ok {
				break
			}
			p := timers[int(i)%len(timers)]
			d := time.Duration(us) * time.Microsecond
			if g, w := p.g.Reset(d), p.w.Reset(d); g != w {
				t.Fatalf("op %d: Reset verdicts diverge: releases=%v at=%v", op, g, w)
			}
		case relOpFIFO:
			k, ok := next()
			if !ok {
				break
			}
			chain, _ := next()
			fifo(fifoDelay(k), int(chain%16))
		case relOpPush:
			q, ok := next()
			if !ok {
				break
			}
			us, ok := next16()
			if !ok {
				break
			}
			push(op, int(q)%relQueues, got.Now().Add(time.Duration(us)*time.Microsecond), 0)
		case relOpPushNow:
			q, ok := next()
			if !ok {
				break
			}
			push(op, int(q)%relQueues, got.Now(), 0)
		case relOpPushSame:
			q, ok := next()
			if !ok {
				break
			}
			n, ok := next()
			if !ok {
				break
			}
			at := got.Now().Add(time.Duration(n) * time.Microsecond)
			for k := 0; k < 1+int(n%8); k++ {
				push(op, (int(q)+k)%relQueues, at, 0)
			}
		case relOpPushFar:
			q, ok := next()
			if !ok {
				break
			}
			secs, ok := next()
			if !ok {
				break
			}
			push(op, int(q)%relQueues, got.Now().Add(time.Duration(secs)*time.Second), 0)
		case relOpPushPast:
			q, ok := next()
			if !ok || got.Now() == 0 {
				break
			}
			at := got.Now() - 1
			if err := queues[int(q)%relQueues].Push(at, relValue{id: nextID}); !errors.Is(err, ErrPastEvent) {
				t.Fatalf("op %d: past Push returned %v, want ErrPastEvent", op, err)
			}
			if _, err := want.At(at, func() {}); !errors.Is(err, ErrPastEvent) {
				t.Fatalf("op %d: past At returned %v", op, err)
			}
		case relOpPushNest:
			q, ok := next()
			if !ok {
				break
			}
			us, ok := next16()
			if !ok {
				break
			}
			child, ok := next16()
			if !ok {
				break
			}
			push(op, int(q)%relQueues, got.Now().Add(time.Duration(us)*time.Microsecond), int32(child)+1)
		case relOpRunUntil:
			us, ok := next16()
			if !ok {
				break
			}
			horizon := got.Now().Add(time.Duration(us) * time.Microsecond)
			got.RunUntil(horizon)
			want.RunUntil(horizon)
		case relOpStep:
			if g, w := got.Step(), want.Step(); g != w {
				t.Fatalf("op %d: Step verdicts diverge: releases=%v at=%v", op, g, w)
			}
		case relOpRun:
			q, ok := next()
			if !ok {
				break
			}
			n, ok := next()
			if !ok {
				break
			}
			var ats []Time
			var children []int32
			for k := 0; k < 1+int(n%24); k++ {
				b, ok := next()
				if !ok {
					break
				}
				at := got.Now().Add(time.Duration(b) * time.Microsecond)
				if b == 0xFF && got.Now() > 0 {
					at = got.Now() - 1
				}
				child := int32(0)
				if b%5 == 1 {
					child = int32(b) + 1 // a push from the release, b µs on
				}
				ats, children = append(ats, at), append(children, child)
			}
			pushRun(op, int(q)%relQueues, ats, children)
		}
		if got.Now() != want.Now() {
			t.Fatalf("op %d: clocks diverge: releases=%v at=%v", op, got.Now(), want.Now())
		}
		if g, w := got.PeekTime(), want.PeekTime(); g != w {
			t.Fatalf("op %d: PeekTime diverges: releases=%v at=%v", op, g, w)
		}
		if got.Len() != want.Len() {
			t.Fatalf("op %d: Len diverges: releases=%d at=%d", op, got.Len(), want.Len())
		}
		got.CheckAccounting()
	}
	got.Run()
	want.Run()

	if len(gotTrace) != len(wantTrace) {
		t.Fatalf("trace lengths diverge: releases=%d at=%d", len(gotTrace), len(wantTrace))
	}
	for i := range gotTrace {
		if gotTrace[i] != wantTrace[i] {
			t.Fatalf("traces diverge at %d: releases=%+v at=%+v", i, gotTrace[i], wantTrace[i])
		}
	}
	if got.Now() != want.Now() || got.Fired() != want.Fired() || got.Len() != 0 {
		t.Fatalf("after drain: releases now=%v fired=%d len=%d, at now=%v fired=%d",
			got.Now(), got.Fired(), got.Len(), want.Now(), want.Fired())
	}
	for i, q := range queues {
		if q.Len() != 0 {
			t.Fatalf("queue %d holds %d values after drain", i, q.Len())
		}
	}
	res.trace, res.now, res.fired, res.stats = gotTrace, got.Now(), got.Fired(), got.Stats()
	return res
}

// releasesProgram is a random program weighted toward pushes, with enough
// recurring AfterFIFO traffic for delays to earn lanes.
func releasesProgram(rng *rand.Rand, n int) []byte {
	data := make([]byte, 0, 4*n)
	for i := 0; i < n; i++ {
		switch r := rng.Intn(10); {
		case r < 2:
			data = append(data, relOpFIFO, byte(rng.Intn(4)), byte(rng.Intn(16)))
		case r < 7:
			op := []byte{relOpPush, relOpPushNow, relOpPushSame, relOpPushFar, relOpPushPast, relOpPushNest}[rng.Intn(6)]
			data = append(data, op, byte(rng.Intn(relQueues)), byte(rng.Intn(4)), byte(rng.Intn(256)), byte(rng.Intn(2)), byte(rng.Intn(256)))
		default:
			data = append(data, byte(rng.Intn(relOpCount)))
			for k := 0; k < 3; k++ {
				data = append(data, byte(rng.Intn(256)))
			}
		}
	}
	return data
}

// runsProgram is releasesProgram with run pushes mixed in: sorted runs
// (instants repeat), runs with descents, and runs with a past instant
// somewhere in them.
func runsProgram(rng *rand.Rand, n int) []byte {
	data := []byte{progRuns}
	for i := 0; i < n; i++ {
		if rng.Intn(10) < 7 {
			data = append(data, releasesProgram(rng, 1)...)
			continue
		}
		offs := make([]byte, 1+rng.Intn(24))
		for k := range offs {
			offs[k] = byte(rng.Intn(0xFF))
		}
		switch rng.Intn(3) {
		case 0:
			slices.Sort(offs)
		case 1:
			offs[rng.Intn(len(offs))] = 0xFF
		}
		data = append(data, relOpRun, byte(rng.Intn(relQueues)), byte(len(offs)-1))
		data = append(data, offs...)
	}
	return data
}

// TestReleasesDifferential runs random programs, with and without run
// pushes, with the lanes live and once more with them off; both must
// match the At reference, and each other, event for event.
func TestReleasesDifferential(t *testing.T) {
	var pushed, laneFired uint64
	var runs relResult
	for _, program := range []func(*rand.Rand, int) []byte{releasesProgram, runsProgram} {
		for seed := int64(0); seed < 200; seed++ {
			data := program(NewRand(seed), 48+int(seed))
			lanes := runReleasesDiff(t, data, defaultConfig)
			wheel := runReleasesDiff(t, data, noLanes())
			if wheel.stats.FiredLane != 0 {
				t.Fatalf("seed %d: forced-wheel run used lanes: %+v", seed, wheel.stats)
			}
			if lanes.now != wheel.now || lanes.fired != wheel.fired || len(lanes.trace) != len(wheel.trace) {
				t.Fatalf("seed %d: lanes and wheel-only runs diverge", seed)
			}
			for _, e := range lanes.trace {
				if e.q >= 0 {
					pushed++
				}
			}
			laneFired += lanes.stats.FiredLane
			runs.runValues += lanes.runValues
			runs.runsPast += lanes.runsPast
			runs.runSplits += lanes.runSplits
		}
	}
	if pushed == 0 || laneFired == 0 {
		t.Fatalf("programs released %d values and fired %d lane events: want both", pushed, laneFired)
	}
	t.Logf("%d values released, %d lane events; run pushes: %d values, %d stopped by a past instant, %d extra stretches",
		pushed, laneFired, runs.runValues, runs.runsPast, runs.runSplits)
	if runs.runValues == 0 || runs.runsPast == 0 || runs.runSplits == 0 {
		t.Fatalf("run pushes: %d values, %d stopped by a past instant, %d extra stretches: want all three",
			runs.runValues, runs.runsPast, runs.runSplits)
	}
}

// TestReleasesDifferentialInvariants reruns a slice of the programs, with
// and without run pushes, with invariant checks armed: the dispatch-time
// key check on top of CheckAccounting after every op.
func TestReleasesDifferentialInvariants(t *testing.T) {
	for _, program := range []func(*rand.Rand, int) []byte{releasesProgram, runsProgram} {
		for seed := int64(500); seed < 540; seed++ {
			data := program(NewRand(seed), 160)
			runReleasesDiff(t, data, Config{Checks: true})
			runReleasesDiff(t, data, Config{NoLanes: true, Checks: true})
		}
	}
}

// TestReleasesFarThenNear re-slots an armed event out of the overflow heap
// and later re-arms the far value, under its old key, on the recycled
// event: the overflow entry left behind must stay stale.
func TestReleasesFarThenNear(t *testing.T) {
	runReleasesDiff(t, []byte{
		relOpPushFar, 0, 30,
		relOpPush, 0, 0, 10,
		relOpRunUntil, 0, 20,
		relOpPush, 0, 0, 10,
		relOpRunUntil, 255, 255,
	}, Config{Checks: true})
}

// FuzzReleases feeds random programs through runReleasesDiff.
func FuzzReleases(f *testing.F) {
	f.Add([]byte{relOpPush, 0, 0, 10, relOpPush, 0, 0, 5, relOpRunUntil, 0, 20})
	f.Add([]byte{relOpPushSame, 1, 3, relOpPushNow, 1, relOpStep, relOpPushPast, 1, relOpStep})
	f.Add([]byte{relOpPushFar, 0, 30, relOpPush, 0, 0, 10, relOpRunUntil, 0, 20, relOpPush, 0, 0, 10, relOpRunUntil, 255, 255})
	f.Add([]byte{relOpPushNest, 2, 0, 5, 0, 0, relOpAfter, 0, 5, relOpReset, 0, 0, 1, relOpStop, 0, relOpRunUntil, 1, 0})
	f.Add(releasesProgram(NewRand(1), 64))
	f.Add([]byte{progRuns, relOpRun, 0, 4, 9, 3, 3, 7, 1, relOpPush, 0, 0, 2, relOpStep, relOpRun, 0, 2, 1, 0xFF, 4, relOpRunUntil, 0, 20})
	f.Add(runsProgram(NewRand(2), 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		runReleasesDiff(t, data, defaultConfig)
	})
}

func TestReleasesLenCountsQueued(t *testing.T) {
	s := NewScheduler()
	var fired []int
	q := NewReleases(s, func(v int) { fired = append(fired, v) })
	for i := 3; i > 0; i-- {
		if err := q.Push(At(time.Duration(i)*time.Microsecond), i); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 3 || q.Len() != 3 {
		t.Fatalf("Len = %d, queue Len = %d, want 3 and 3", s.Len(), q.Len())
	}
	s.Step()
	if s.Len() != 2 || len(fired) != 1 || fired[0] != 1 {
		t.Fatalf("after one Step: Len = %d, fired %v", s.Len(), fired)
	}
	s.Run()
	if s.Len() != 0 || len(fired) != 3 || fired[2] != 3 {
		t.Fatalf("after Run: Len = %d, fired %v", s.Len(), fired)
	}
}

// mustPanic runs fn and returns its panic message, failing when there is none.
func mustPanic(t *testing.T, fn func()) string {
	t.Helper()
	var msg string
	func() {
		defer func() {
			if r := recover(); r != nil {
				msg, _ = r.(string)
			}
		}()
		fn()
		t.Fatal("no panic")
	}()
	return msg
}

// TestReleasesArmedDriftPanics corrupts a queue so its armed event no
// longer carries the heap minimum's key: CheckAccounting and, under
// invariant checks, the release itself must panic.
func TestReleasesArmedDriftPanics(t *testing.T) {
	build := func() (*Scheduler, *Releases[int]) {
		s := NewSchedulerWith(Config{Checks: true})
		q := NewReleases(s, func(int) {})
		for _, us := range []int{5, 9} {
			if err := q.Push(At(time.Duration(us)*time.Microsecond), us); err != nil {
				t.Fatal(err)
			}
		}
		s.CheckAccounting()
		return s, q
	}

	s, q := build()
	q.h[0], q.h[1] = q.h[1], q.h[0] // the armed key is no longer the minimum
	if msg := mustPanic(t, s.CheckAccounting); !strings.Contains(msg, "release queue") {
		t.Errorf("CheckAccounting panicked with %q", msg)
	}

	s, q = build()
	q.h[0].seq += 100
	if msg := mustPanic(t, func() { s.Step() }); !strings.Contains(msg, "release queue drift") {
		t.Errorf("Step panicked with %q", msg)
	}

	s, _ = build()
	s.queued++
	if msg := mustPanic(t, s.CheckAccounting); !strings.Contains(msg, "drift") {
		t.Errorf("CheckAccounting panicked with %q", msg)
	}

	// A run whose cursor moved on without its key: the run then counts one
	// value fewer than the queue, and its key is no longer its next value's.
	run := func() (*Scheduler, *Releases[int]) {
		s, q := build()
		r := &intRun{ats: []Time{At(3 * time.Microsecond), At(4 * time.Microsecond), At(7 * time.Microsecond)}}
		if n, err := q.PushRun(r); n != 3 || err != nil {
			t.Fatalf("PushRun = %d, %v", n, err)
		}
		s.CheckAccounting()
		return s, q
	}
	s, q = run()
	q.runs[0].next++
	if msg := mustPanic(t, s.CheckAccounting); !strings.Contains(msg, "release queue drift") {
		t.Errorf("CheckAccounting panicked with %q", msg)
	}
	s, q = run()
	q.runs[0].next++
	if msg := mustPanic(t, func() { s.Step() }); !strings.Contains(msg, "release queue drift") {
		t.Errorf("Step panicked with %q", msg)
	}
}

// intRun is a run of ints, value i being i.
type intRun struct{ ats []Time }

func (r *intRun) Len() int        { return len(r.ats) }
func (r *intRun) At(i int) Time   { return r.ats[i] }
func (r *intRun) Value(i int) int { return i }

// TestReleasesSteadyStateZeroAlloc: with the heap and the free list warm, a
// push and its release allocate nothing, whether the push lands behind the
// armed minimum or becomes the new one.
func TestReleasesSteadyStateZeroAlloc(t *testing.T) {
	s := NewScheduler()
	n := 0
	q := NewReleases(s, func(v int) { n += v })
	for i := 0; i < 64; i++ {
		_ = q.Push(s.Now().Add(time.Duration(64-i)*time.Microsecond), 1)
	}
	s.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		_ = q.Push(s.Now().Add(2*time.Microsecond), 1)
		_ = q.Push(s.Now().Add(time.Microsecond), 1) // re-slots the armed event
		s.Step()
		s.Step()
	})
	if allocs != 0 {
		t.Errorf("steady-state Push+release allocates %.2f allocs/op, want 0", allocs)
	}
	if n != 64+2*1001 {
		t.Errorf("released %d values, want %d", n, 64+2*1001)
	}
}
