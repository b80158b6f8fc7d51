package sim

import (
	"math/rand"
	"testing"
	"time"
	"unsafe"
)

// Differential test: the scheduler — FIFO lanes, timing wheel and
// overflow heap together — must produce exactly the same dispatch trace
// as the pre-wheel single-heap scheduler for any stream of schedule /
// AfterFIFO / cancel / reset / nested-schedule / step / stop / advance
// operations. refSched below is a faithful transcription of the old core
// — a min-heap on (at, seq) with lazy cancellation — kept test-only as
// the ordering oracle.

// refEventState mirrors the old lazy-cancellation lifecycle.
type refEventState uint8

const (
	refScheduled refEventState = iota
	refCancelled
	refDone
)

type refEvent struct {
	at    Time
	seq   uint64
	fn    func()
	state refEventState
}

// refSched is the old scheduler: one binary min-heap, lazy cancellation,
// FIFO seq ordering for simultaneous events.
type refSched struct {
	heap    []*refEvent
	now     Time
	seq     uint64
	live    int
	stopped bool
}

func (s *refSched) After(d time.Duration, fn func()) *refEvent {
	if d < 0 {
		d = 0
	}
	ev := &refEvent{at: s.now.Add(d), seq: s.seq, fn: fn}
	s.seq++
	s.push(ev)
	s.live++
	return ev
}

func (s *refSched) stop(ev *refEvent) bool {
	if ev == nil || ev.state != refScheduled {
		return false
	}
	ev.state = refCancelled
	ev.fn = nil
	s.live--
	return true
}

// reset mirrors Timer.Reset as a Stop+After pair reusing the callback: it
// is the definitional equivalence the differential trace then verifies.
func (s *refSched) reset(ev *refEvent, d time.Duration, fn func()) (*refEvent, bool) {
	if ev == nil || ev.state != refScheduled {
		return ev, false
	}
	s.stop(ev)
	return s.After(d, fn), true
}

func (s *refSched) peek() *refEvent {
	for len(s.heap) > 0 {
		if s.heap[0].state == refScheduled {
			return s.heap[0]
		}
		s.pop()
	}
	return nil
}

func (s *refSched) step() {
	ev := s.pop()
	s.now = ev.at
	s.live--
	fn := ev.fn
	ev.state = refDone
	ev.fn = nil
	fn()
}

func (s *refSched) runUntil(t Time) {
	s.stopped = false
	for !s.stopped {
		ev := s.peek()
		if ev == nil {
			break
		}
		if ev.at > t {
			s.now = t
			return
		}
		s.step()
	}
	if s.now < t && t != End && s.live == 0 {
		s.now = t
	}
}

func (s *refSched) run() { s.runUntil(End) }

func (s *refSched) peekTime() Time {
	if ev := s.peek(); ev != nil {
		return ev.at
	}
	return End
}

func refLess(a, b *refEvent) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

func (s *refSched) push(ev *refEvent) {
	s.heap = append(s.heap, ev)
	i := len(s.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !refLess(s.heap[i], s.heap[parent]) {
			break
		}
		s.heap[i], s.heap[parent] = s.heap[parent], s.heap[i]
		i = parent
	}
}

func (s *refSched) pop() *refEvent {
	h := s.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = nil
	s.heap = h[:n]
	h = s.heap
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && refLess(h[c+1], h[c]) {
			c++
		}
		if !refLess(h[c], h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	return top
}

// --- Differential driver ------------------------------------------------

type traceEntry struct {
	id int
	at Time
}

// diffResult is what one program leaves behind on the scheduler under
// test, for comparing two runs of the same program with each other.
type diffResult struct {
	trace []traceEntry
	now   Time
	fired uint64
	stats Stats
}

// Program opcodes, each followed by its operands. A plain program draws
// from the first opWheelCount (op byte modulo opWheelCount): the encoding
// from before AfterFIFO existed, which the corpus committed under
// testdata/fuzz was grown against, so those inputs still decode to the
// programs that made them interesting. A program whose first byte is
// progLanes draws from all opCount (op byte modulo opCount), one whose
// first byte is progArgs from all opArgCount, the argument-form timers
// included.
const (
	opAfter      = iota // u16 µs
	opStop              // timer index
	opReset             // timer index, u16 µs
	opNested            // u16 µs parent, u16 µs child
	opRunUntil          // u16 µs horizon
	opFar               // seconds: overflow heap
	opWheelCount        // ops of a plain program
)

const (
	opFIFO      = opWheelCount + iota // delay index, chain length: recurring AfterFIFO
	opFIFOOnce                        // u16 ns: one-off AfterFIFO
	opStep                            // one Step on each side
	opFIFOStops                       // delay index: AfterFIFO whose callback calls Stop
	opCount

	progLanes = 0xFF // first byte of a program using all opCount ops
)

const (
	opArgAfter = opCount + iota // u16 µs: AfterArg (After on the reference)
	opArgAt                     // u16 µs: AtArg that far ahead (At on the reference)
	opArgCount

	progArgs = 0xFE // first byte of a program using all opArgCount ops
)

// progClear is the first byte of a pair of programs: the next byte n is
// the length of the first, which runs on the scheduler under test and is
// left with entries pending in every container; the scheduler is
// cleared, and the rest runs as a program of its own (see runCleared).
const progClear = 0xFD

// fifoDelays are the recurring AfterFIFO delays a program picks from: the
// six the Fig. 8 tree arms, then enough others to run out of lanes.
var fifoDelays = func() []time.Duration {
	ds := []time.Duration{32, 320, 1200, 12_000, 10_000, 20_000}
	for i := 1; len(ds) < maxLanes+8; i++ {
		ds = append(ds, time.Duration(i)*777)
	}
	return ds
}()

// fifoDelay maps an operand byte to a recurring delay, favouring the
// first four so short programs still see lanes admitted.
func fifoDelay(b byte) time.Duration {
	k := int(b) % 32
	if k >= len(fifoDelays) {
		k %= 4
	}
	return fifoDelays[k]
}

// runDifferential decodes a byte stream into a deterministic operation
// program and replays it against both schedulers, comparing dispatch
// traces, clocks, PeekTime, Len and every Stop/Reset/Step verdict. A
// progClear pair goes to runCleared. The program runs twice, its AfterFIFO
// calls once without Lane handles and once through them: trace, clock,
// Fired and Stats but LaneHandleMisses must not depend on the handles.
func runDifferential(t *testing.T, data []byte) diffResult {
	t.Helper()
	run := func(handles *fifoHandles) diffResult {
		if len(data) > 0 && data[0] == progClear {
			return runCleared(t, data[1:], handles)
		}
		return runProgram(t, NewScheduler(), data, false, handles)
	}
	plain, handled := run(nil), run(&fifoHandles{})
	handled.stats.LaneHandleMisses = plain.stats.LaneHandleMisses
	if handled.now != plain.now || handled.fired != plain.fired || handled.stats != plain.stats || len(handled.trace) != len(plain.trace) {
		t.Fatalf("through Lane handles: now=%v fired=%d trace=%d %+v; without: now=%v fired=%d trace=%d %+v",
			handled.now, handled.fired, len(handled.trace), handled.stats, plain.now, plain.fired, len(plain.trace), plain.stats)
	}
	for i := range plain.trace {
		if handled.trace[i] != plain.trace[i] {
			t.Fatalf("through Lane handles, traces diverge at %d: %+v, without %+v", i, handled.trace[i], plain.trace[i])
		}
	}
	return plain
}

// fifoHandles are the Lane handles a program's AfterFIFO calls pass: chains
// of delay index k share handle k%4, so a handle meets several delays the
// way a pipe's transmit handle meets several packet sizes, and one-off
// delays share the last.
type fifoHandles [5]Lane

// afterFIFO arms fn(arg) d ahead on s through h, or without a handle when
// h is nil, and checks where the event went: a lane holding it must serve
// d, and a handle that holds for d must have filed it in its own lane.
func afterFIFO(t *testing.T, s *Scheduler, h *Lane, d time.Duration, fn func(unsafe.Pointer), arg unsafe.Pointer) {
	t.Helper()
	s.AfterFIFO(h, d, fn, arg)
	seq, in := s.seq-1, -1
	for i := 0; s.lanes != nil && i < s.lanes.n; i++ {
		if l := &s.lanes.lanes[i]; l.n > 0 && l.buf[(l.head+l.n-1)&(len(l.buf)-1)].seq == seq {
			in = i
		}
	}
	if in >= 0 && s.lanes.lanes[in].delay != d {
		t.Fatalf("an AfterFIFO of %v was filed in lane %d, which serves %v", d, in, s.lanes.lanes[in].delay)
	}
	if h != nil && h.key>>laneIdxBits == s.laneGen && s.lanes.lanes[h.key&(maxLanes-1)].delay == d && in != int(h.key&(maxLanes-1)) {
		t.Fatalf("an AfterFIFO of %v through a handle on lane %d was filed in lane %d", d, h.key&(maxLanes-1), in)
	}
}

// runCleared runs the first program of a progClear pair on a scheduler,
// arms an entry in every container on top of what it left (leavePending),
// clears the scheduler and runs the second program on it. What the second
// program does — trace, clock, Fired and Stats — must be what it does on
// a fresh scheduler, and CheckAccounting must pass right after Clear. With
// handles, the second program passes the handles the first one set, and
// the fresh run starts from zero handles.
func runCleared(t *testing.T, data []byte, handles *fifoHandles) diffResult {
	t.Helper()
	n := 0
	if len(data) > 0 {
		n, data = min(int(data[0]), len(data)-1), data[1:]
	}
	s := NewScheduler()
	runProgram(t, s, data[:n], true, handles)
	leavePending(t, s, handles)
	s.Clear()
	s.CheckAccounting()
	got := runProgram(t, s, data[n:], false, handles)
	var fresh *fifoHandles
	if handles != nil {
		fresh = &fifoHandles{}
	}
	want := runProgram(t, NewScheduler(), data[n:], false, fresh)
	if got.now != want.now || got.fired != want.fired || got.stats != want.stats || len(got.trace) != len(want.trace) {
		t.Fatalf("after Clear: now=%v fired=%d trace=%d %+v; fresh: now=%v fired=%d trace=%d %+v",
			got.now, got.fired, len(got.trace), got.stats, want.now, want.fired, len(want.trace), want.stats)
	}
	for i := range got.trace {
		if got.trace[i] != want.trace[i] {
			t.Fatalf("after Clear, traces diverge at %d: %+v, fresh %+v", i, got.trace[i], want.trace[i])
		}
	}
	return got
}

// leavePending arms on s an entry in each container, whatever a program
// left there: a wheel timer, an overflow-heap event, AfterFIFO calls on
// one delay until it holds a lane (unless WheelOnly), through the first
// of handles when there are any, and a release queue holding a pushed
// value and a run. Each fails the test if it fires.
func leavePending(t *testing.T, s *Scheduler, handles *fifoHandles) {
	fail := func() { t.Error("an event pending at Clear fired") }
	s.After(time.Millisecond, fail)
	s.After(time.Hour, fail)
	var h *Lane
	if handles != nil {
		h = &handles[0]
	}
	for i := 0; i <= laneAdmitAfter; i++ {
		afterFIFO(t, s, h, 3*time.Microsecond, func(unsafe.Pointer) { fail() }, nil)
	}
	q := NewReleases(s, func(int) { fail() })
	if err := q.Push(s.Now().Add(time.Hour), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := q.PushRun(&intRun{ats: []Time{s.Now().Add(time.Second), s.Now().Add(2 * time.Second)}}); err != nil {
		t.Fatal(err)
	}
	if s.wheel.count == 0 || s.heapLive == 0 || s.queued == 0 || (!s.wheelOnly && s.laneLive == 0) {
		t.Fatalf("want entries pending everywhere: wheel=%d overflow=%d lanes=%d queued=%d",
			s.wheel.count, s.heapLive, s.laneLive, s.queued)
	}
}

// runProgram is runDifferential's lockstep on wheelSched, its AfterFIFO
// calls through handles unless that is nil. With leave set it stops after
// the last op, nothing drained or compared at the end.
func runProgram(t *testing.T, wheelSched *Scheduler, data []byte, leave bool, handles *fifoHandles) diffResult {
	t.Helper()
	const maxOps = 2048

	ref := &refSched{}

	var wheelTrace, refTrace []traceEntry

	type timerPair struct {
		wt  Timer
		rt  *refEvent
		rfn func()
	}
	var timers []timerPair

	pos, ops := 0, byte(opWheelCount)
	if len(data) > 0 && data[0] == progLanes {
		pos, ops = 1, opCount
	}
	if len(data) > 0 && data[0] == progArgs {
		pos, ops = 1, opArgCount
	}
	next := func() (byte, bool) {
		if pos >= len(data) {
			return 0, false
		}
		b := data[pos]
		pos++
		return b, true
	}
	next16 := func() (uint16, bool) {
		hi, ok := next()
		if !ok {
			return 0, false
		}
		lo, ok := next()
		if !ok {
			return uint16(hi), true
		}
		return uint16(hi)<<8 | uint16(lo), true
	}

	nextID := 0
	// schedule registers one callback on each side appending (id, now);
	// when nest is positive each callback also schedules a child on its
	// own side under an id derived from the parent's, so neither side's
	// trace depends on the other's dispatch order.
	schedule := func(d, nest time.Duration) {
		id := nextID
		nextID++
		cid := -id - 1000000
		wfn := func() {
			wheelTrace = append(wheelTrace, traceEntry{id, wheelSched.Now()})
			if nest > 0 {
				wheelSched.After(nest, func() {
					wheelTrace = append(wheelTrace, traceEntry{cid, wheelSched.Now()})
				})
			}
		}
		rfn := func() {
			refTrace = append(refTrace, traceEntry{id, ref.now})
			if nest > 0 {
				ref.After(nest, func() {
					refTrace = append(refTrace, traceEntry{cid, ref.now})
				})
			}
		}
		timers = append(timers, timerPair{wt: wheelSched.After(d, wfn), rt: ref.After(d, rfn), rfn: rfn})
	}
	// scheduleArg arms one timer in the argument form on the scheduler
	// under test, at d from now through AfterArg or AtArg, and as a closure
	// on the reference; Stop and Reset ops pick it like any other timer.
	// Its id rides as the argument.
	wfire := func(arg unsafe.Pointer) {
		wheelTrace = append(wheelTrace, traceEntry{*(*int)(arg), wheelSched.Now()})
	}
	scheduleArg := func(d time.Duration, at bool) {
		id := new(int)
		*id = nextID
		nextID++
		rfn := func() { refTrace = append(refTrace, traceEntry{*id, ref.now}) }
		var wt Timer
		if at {
			var err error
			if wt, err = wheelSched.AtArg(wheelSched.Now().Add(d), wfire, unsafe.Pointer(id)); err != nil {
				t.Fatalf("AtArg %v ahead: %v", d, err)
			}
		} else {
			wt = wheelSched.AfterArg(d, wfire, unsafe.Pointer(id))
		}
		timers = append(timers, timerPair{wt: wt, rt: ref.After(d, rfn), rfn: rfn})
	}
	// scheduleFIFO arms one AfterFIFO event (After on the reference),
	// through handle hi of handles. Its callback re-arms the same delay
	// chain more times — a link sending back to back — and calls Stop when
	// stops is set. The chain's id rides as the event's argument, and the
	// callback checks it got its own.
	scheduleFIFO := func(d time.Duration, hi int, chain int, stops bool) {
		var h *Lane
		if handles != nil {
			h = &handles[hi]
		}
		base := nextID
		nextID++
		var wfn func(unsafe.Pointer)
		var rfn func()
		wstep, rstep := 0, 0
		wfn = func(arg unsafe.Pointer) {
			if got := *(*int)(arg); got != base {
				t.Fatalf("chain %d fired with the argument of chain %d", base, got)
			}
			wheelTrace = append(wheelTrace, traceEntry{base + wstep<<20, wheelSched.Now()})
			if wstep++; wstep <= chain {
				afterFIFO(t, wheelSched, h, d, wfn, arg)
			}
			if stops {
				wheelSched.Stop()
			}
		}
		rfn = func() {
			refTrace = append(refTrace, traceEntry{base + rstep<<20, ref.now})
			if rstep++; rstep <= chain {
				ref.After(d, rfn)
			}
			if stops {
				ref.stopped = true
			}
		}
		afterFIFO(t, wheelSched, h, d, wfn, unsafe.Pointer(&base))
		ref.After(d, rfn)
	}

	for op := 0; op < maxOps; op++ {
		b, ok := next()
		if !ok {
			break
		}
		switch b % ops {
		case opAfter:
			us, ok := next16()
			if !ok {
				break
			}
			schedule(time.Duration(us)*time.Microsecond, 0)
		case opStop:
			idx, ok := next()
			if !ok || len(timers) == 0 {
				break
			}
			p := &timers[int(idx)%len(timers)]
			wOK := p.wt.Stop()
			rOK := ref.stop(p.rt)
			if wOK != rOK {
				t.Fatalf("op %d: Stop verdicts diverge: wheel=%v ref=%v", op, wOK, rOK)
			}
		case opReset:
			idx, ok := next()
			if !ok || len(timers) == 0 {
				break
			}
			us, ok := next16()
			if !ok {
				break
			}
			p := &timers[int(idx)%len(timers)]
			d := time.Duration(us) * time.Microsecond
			wOK := p.wt.Reset(d)
			var rOK bool
			p.rt, rOK = ref.reset(p.rt, d, p.rfn)
			if wOK != rOK {
				t.Fatalf("op %d: Reset verdicts diverge: wheel=%v ref=%v", op, wOK, rOK)
			}
		case opNested:
			us, ok := next16()
			if !ok {
				break
			}
			us2, ok := next16()
			if !ok {
				break
			}
			schedule(time.Duration(us)*time.Microsecond,
				time.Duration(us2)*time.Microsecond+time.Nanosecond)
		case opRunUntil: // advance both clocks by the same horizon
			us, ok := next16()
			if !ok {
				break
			}
			horizon := wheelSched.Now().Add(time.Duration(us) * time.Microsecond)
			wheelSched.RunUntil(horizon)
			ref.runUntil(horizon)
		case opFar: // exercises the overflow heap
			secs, ok := next()
			if !ok {
				break
			}
			schedule(time.Duration(secs)*time.Second, 0)
		case opFIFO:
			k, ok := next()
			if !ok {
				break
			}
			chain, _ := next()
			scheduleFIFO(fifoDelay(k), int(k%4), int(chain%16), false)
		case opFIFOOnce:
			ns, ok := next16()
			if !ok {
				break
			}
			scheduleFIFO(time.Duration(ns), 4, 0, false)
		case opStep:
			wOK := wheelSched.Step()
			rOK := ref.peek() != nil
			if rOK {
				ref.step()
			}
			if wOK != rOK {
				t.Fatalf("op %d: Step verdicts diverge: wheel=%v ref=%v", op, wOK, rOK)
			}
		case opFIFOStops:
			k, ok := next()
			if !ok {
				break
			}
			scheduleFIFO(fifoDelay(k), int(k%4), 0, true)
		case opArgAfter, opArgAt:
			us, ok := next16()
			if !ok {
				break
			}
			scheduleArg(time.Duration(us)*time.Microsecond, b%ops == opArgAt)
		}
		if wheelSched.Now() != ref.now {
			t.Fatalf("op %d: clocks diverge: wheel=%v ref=%v", op, wheelSched.Now(), ref.now)
		}
		if wp, rp := wheelSched.PeekTime(), ref.peekTime(); wp != rp {
			t.Fatalf("op %d: PeekTime diverges: wheel=%v ref=%v", op, wp, rp)
		}
		if wheelSched.Len() != ref.live {
			t.Fatalf("op %d: live counts diverge: wheel=%d ref=%d", op, wheelSched.Len(), ref.live)
		}
		if InvariantChecks() {
			wheelSched.CheckAccounting()
		}
	}

	if leave {
		return diffResult{}
	}
	// Drain; a callback that calls Stop only ends one Run.
	for wheelSched.Len() > 0 {
		wheelSched.Run()
	}
	for ref.live > 0 {
		ref.run()
	}

	if len(wheelTrace) != len(refTrace) {
		t.Fatalf("trace lengths diverge: wheel=%d ref=%d", len(wheelTrace), len(refTrace))
	}
	for i := range wheelTrace {
		if wheelTrace[i] != refTrace[i] {
			t.Fatalf("traces diverge at %d: wheel=%+v ref=%+v", i, wheelTrace[i], refTrace[i])
		}
	}
	if wheelSched.Now() != ref.now {
		t.Fatalf("clocks diverge after drain: wheel=%v ref=%v", wheelSched.Now(), ref.now)
	}
	if uint64(len(wheelTrace)) != wheelSched.Fired() {
		t.Fatalf("Fired() = %d, trace has %d entries", wheelSched.Fired(), len(wheelTrace))
	}
	return diffResult{trace: wheelTrace, now: wheelSched.Now(), fired: wheelSched.Fired(), stats: wheelSched.Stats()}
}

// FuzzScheduler feeds random operation streams through the scheduler and
// the reference heap scheduler in lockstep; any (time, seq) dispatch
// divergence, mismatched Stop/Reset/Step verdict, or clock drift fails.
// A progClear pair runs with lanes live and again under WheelOnly.
func FuzzScheduler(f *testing.F) {
	f.Add([]byte{opAfter, 0, 10})
	f.Add([]byte{opAfter, 0, 10, opAfter, 0, 10, opStop, 0, opRunUntil, 0, 200})
	f.Add([]byte{opReset, 0, 0, 50, opNested, 0, 5, 0, 3, opFar, 200, opRunUntil, 255, 255})
	f.Add([]byte{opFar, 30, opAfter, 1, 0, opRunUntil, 255, 255, opReset, 0, 0, 1, opRunUntil, 255, 255, opRunUntil, 255, 255})
	f.Add([]byte{opNested, 0, 0, 0, 0, opNested, 0, 0, 0, 0, opRunUntil, 0, 0, opStop, 1, opReset, 2, 0, 9})
	f.Add(lanesProgram(NewRand(1), 64))
	f.Add(manyDelaysProgram())
	f.Add(reclaimProgram())
	f.Add(argsProgram(NewRand(1), 64))
	f.Add(clearProgram(NewRand(1), 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		runDifferential(t, data)
		if len(data) > 0 && data[0] == progClear {
			WheelOnly(func() { runDifferential(t, data) })
		}
	})
}

// clearProgram is a progClear pair of argsPrograms, the first of n ops
// cut to at most 255 bytes.
func clearProgram(rng *rand.Rand, n int) []byte {
	first := argsProgram(rng, n)
	first = first[:min(len(first), 255)]
	return append(append([]byte{progClear, byte(len(first))}, first...), argsProgram(rng, n)...)
}

// argsProgram is lanesProgram behind progArgs, with argument-form timers
// armed among the closure ones, so Stop and Reset pick either kind.
func argsProgram(rng *rand.Rand, n int) []byte {
	data := lanesProgram(rng, n)
	data[0] = progArgs
	for i := 0; i < n/4; i++ {
		data = append(data, []byte{opArgAfter, opArgAt}[rng.Intn(2)], 0, byte(rng.Intn(64)),
			opReset, byte(rng.Intn(256)), 0, byte(rng.Intn(64)), opStop, byte(rng.Intn(256)), opStep)
	}
	return data
}

// lanesProgram builds a well-formed program of n ops dominated by
// AfterFIFO — recurring chains and one-offs — with wheel timers being
// reset and stopped, Steps, Stops from lane callbacks and short RunUntil
// horizons in between, so lane heads and wheel events interleave.
func lanesProgram(rng *rand.Rand, n int) []byte {
	mix := []byte{opFIFO, opFIFO, opFIFO, opFIFO, opFIFOOnce, opAfter, opReset, opStop,
		opRunUntil, opStep, opFIFOStops, opNested, opFar}
	data := []byte{progLanes}
	for i := 0; i < n; i++ {
		op := mix[rng.Intn(len(mix))]
		data = append(data, op)
		switch op {
		case opRunUntil, opAfter: // ≤ 63 µs: horizons fall between pending events
			data = append(data, 0, byte(rng.Intn(64)))
		case opReset:
			data = append(data, byte(rng.Intn(256)), 0, byte(rng.Intn(64)))
		case opNested:
			data = append(data, 0, byte(rng.Intn(64)), 0, byte(rng.Intn(8)))
		case opFIFO, opFIFOOnce:
			data = append(data, byte(rng.Intn(256)), byte(rng.Intn(256)))
		case opStop, opFar, opFIFOStops:
			data = append(data, byte(rng.Intn(256)))
		}
	}
	return data
}

// manyDelaysProgram arms every recurring delay often enough to be
// admitted — more delays than there are lanes — and runs them out.
func manyDelaysProgram() []byte {
	data := []byte{progLanes}
	for rep := 0; rep < laneAdmitAfter+2; rep++ {
		for k := range fifoDelays {
			data = append(data, opFIFO, byte(k), 1)
		}
		data = append(data, opRunUntil, 0, 1)
	}
	return data
}

// reclaimProgram takes every lane with delays that then stop recurring,
// and only afterwards starts back-to-back chains of the tree's first four:
// laneIdleAfter sequence numbers on, those take over idle lanes.
func reclaimProgram() []byte {
	data := []byte{progLanes}
	for rep := 0; rep < laneAdmitAfter+2; rep++ {
		for k := 6; k < len(fifoDelays); k++ {
			data = append(data, opFIFO, byte(k), 1)
		}
		data = append(data, opRunUntil, 0, 1)
	}
	for i := 0; i < 2*laneIdleAfter/16; i++ {
		data = append(data, opFIFO, byte(i%4), 15, opRunUntil, 0, byte(i%8))
	}
	return data
}

// TestSchedulerDifferentialRandom drives the same lockstep comparison
// with seeded pseudo-random programs so plain `go test` covers the
// differential property without the fuzzer: each byte string once as a
// plain program and once, behind progLanes, over all ops.
func TestSchedulerDifferentialRandom(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := NewRand(seed)
		n := 32 + rng.Intn(480)
		data := make([]byte, 1+n)
		data[0] = progLanes
		for i := range data[1:] {
			data[1+i] = byte(rng.Intn(256))
		}
		runDifferential(t, data[1:])
		runDifferential(t, data)
	}
}

// TestSchedulerDifferentialLanes runs lane-heavy programs against the
// reference, then once more with every AfterFIFO sent to the wheel: trace,
// clock and Fired must not depend on the container.
func TestSchedulerDifferentialLanes(t *testing.T) {
	var laneFired uint64
	for seed := int64(0); seed < 200; seed++ {
		data := lanesProgram(NewRand(seed), 64+int(seed)*4)
		lanes := runDifferential(t, data)
		var wheelOnly diffResult
		WheelOnly(func() { wheelOnly = runDifferential(t, data) })
		if wheelOnly.stats.FiredLane != 0 || wheelOnly.stats.Lanes != 0 {
			t.Fatalf("seed %d: forced-wheel run used lanes: %+v", seed, wheelOnly.stats)
		}
		if lanes.now != wheelOnly.now || lanes.fired != wheelOnly.fired || len(lanes.trace) != len(wheelOnly.trace) {
			t.Fatalf("seed %d: lanes now=%v fired=%d trace=%d, wheel only now=%v fired=%d trace=%d", seed,
				lanes.now, lanes.fired, len(lanes.trace), wheelOnly.now, wheelOnly.fired, len(wheelOnly.trace))
		}
		for i := range lanes.trace {
			if lanes.trace[i] != wheelOnly.trace[i] {
				t.Fatalf("seed %d: traces diverge at %d: lanes=%+v wheel only=%+v", seed, i, lanes.trace[i], wheelOnly.trace[i])
			}
		}
		laneFired += lanes.stats.FiredLane
	}
	if laneFired == 0 {
		t.Fatal("no program fired a single event from a lane")
	}
}

// TestSchedulerDifferentialArgs runs programs with argument-form timers
// (AfterArg, AtArg) against the reference, with lanes live and under
// WheelOnly: verdicts, clock and trace are the closure form's.
func TestSchedulerDifferentialArgs(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		data := argsProgram(NewRand(seed), 64+int(seed)*4)
		runDifferential(t, data)
		WheelOnly(func() { runDifferential(t, data) })
	}
}

// TestSchedulerDifferentialClear runs progClear pairs with lanes live and
// under WheelOnly: a cleared scheduler runs the second program exactly as
// a fresh one does, Stats included, whatever the first one left pending.
func TestSchedulerDifferentialClear(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		data := clearProgram(NewRand(seed), 32+int(seed)*2)
		runDifferential(t, data)
		WheelOnly(func() { runDifferential(t, data) })
	}
}

// TestSchedulerDifferentialLaneOverflow arms more recurring delays than
// there are lanes: the surplus stays in the wheel and order still holds.
func TestSchedulerDifferentialLaneOverflow(t *testing.T) {
	res := runDifferential(t, manyDelaysProgram())
	if res.stats.Lanes != maxLanes {
		t.Errorf("Lanes = %d, want all %d taken", res.stats.Lanes, maxLanes)
	}
	if res.stats.FiredLane == 0 || res.stats.FiredWheel == 0 || res.stats.FIFONoLane == 0 {
		t.Errorf("want events fired from both containers and unserved AfterFIFO calls: %+v", res.stats)
	}
}

// TestSchedulerDifferentialLaneReclaim: delays that arrive after every lane
// is taken by delays gone quiet get lanes, and order still holds.
func TestSchedulerDifferentialLaneReclaim(t *testing.T) {
	res := runDifferential(t, reclaimProgram())
	cold := uint64((laneAdmitAfter + 2) * (len(fifoDelays) - 6) * 2)
	if res.stats.Lanes != maxLanes || res.stats.FiredLane < cold+laneIdleAfter/2 {
		t.Errorf("lanes fired %d events, %d at most from the %d early delays: the late ones got no lane (%+v)",
			res.stats.FiredLane, cold, len(fifoDelays)-6, res.stats)
	}
}

// TestSchedulerDifferentialInvariants reruns a slice of the random and
// lane-heavy programs with invariant checks armed, so the accounting
// assertions in dispatch, and CheckAccounting after every op, cover the
// differential workload too.
func TestSchedulerDifferentialInvariants(t *testing.T) {
	SetInvariantChecks(true)
	defer SetInvariantChecks(false)
	for seed := int64(1000); seed < 1050; seed++ {
		rng := NewRand(seed)
		data := make([]byte, 1+256)
		data[0] = progLanes
		for i := range data[1:] {
			data[1+i] = byte(rng.Intn(256))
		}
		runDifferential(t, data[1:])
		runDifferential(t, data)
		runDifferential(t, lanesProgram(rng, 200))
	}
}
