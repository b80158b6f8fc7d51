package sim

// Differential determinism proof for handoffs, in the FuzzScheduler
// lockstep idiom: a byte stream decodes into a small deterministic program
// over K shards — logical partitions of one scheduler's events, standing
// for the nodes of a network — with root events, timers, handoffs from one
// shard to another, and sync points. A handoff is how a link hands a
// packet to the next hop: an AfterFIFO event whose argument carries the
// payload. The program runs three ways on identical input: with every
// handoff armed as a plain At closure (the reference semantics every
// figure was generated with), through the scheduler's FIFO lanes, and with
// the lanes switched off (WheelOnly), where handoffs take the wheel's
// argument-carrying arm. Every observable — per-shard dispatch traces,
// per-shard work counters, handoff ledgers, sync-point global reads, fired
// counts, the clock — must match bit for bit across the three runs.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
	"time"
	"unsafe"
)

// splitmix is splitmix64: a cheap, well-mixed hash for deriving
// deterministic per-event behavior from ids.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

const (
	sdShards  = 4
	sdHop     = Time(100 * time.Microsecond) // a handoff's shortest delay
	sdDelays  = 4                            // handoff delays: sdHop + k*sdQuantum, k < sdDelays
	sdQuantum = Time(50 * time.Microsecond)
	sdHorizon = Time(40 * time.Second)
	sdStopAt  = 600 // sync-read threshold that stops the run
)

// sdEntry is one observed dispatch: which program event fired and when.
type sdEntry struct {
	id uint64
	at Time
}

// sdHandoff is the payload a handoff carries to its target shard.
type sdHandoff struct {
	target int
	id     uint64
	depth  int
}

// sdEnv hosts one run of the differential program.
type sdEnv struct {
	sched *Scheduler
	fifo  bool // handoffs through AfterFIFO; else At closures
	recv  func(unsafe.Pointer)

	counters [sdShards]int64
	xferred  [sdShards]int64
	traces   [sdShards][]sdEntry
	timers   [sdShards][]Timer
	syncLog  []string
}

// newSDEnv returns an environment whose links are warm: each handoff delay
// has carried laneAdmitAfter empty events before the program starts, so a
// program's first handoffs already meet their lanes.
func newSDEnv(fifo bool) *sdEnv {
	e := &sdEnv{sched: NewScheduler(), fifo: fifo}
	e.recv = e.receive
	for k := Time(0); k < sdDelays; k++ {
		d := (sdHop + k*sdQuantum).Duration()
		for i := 0; i < laneAdmitAfter; i++ {
			if fifo {
				e.sched.AfterFIFO(nil, d, func(unsafe.Pointer) {}, nil)
			} else {
				e.sched.After(d, func() {})
			}
		}
	}
	return e
}

func (e *sdEnv) run() { e.sched.RunUntil(sdHorizon) }

// post hands an event to shard to, d from now.
func (e *sdEnv) post(to int, d time.Duration, id uint64, depth int) {
	h := &sdHandoff{target: to, id: id, depth: depth}
	if e.fifo {
		e.sched.AfterFIFO(nil, d, e.recv, unsafe.Pointer(h))
		return
	}
	e.sched.At(e.sched.Now().Add(d), func() { e.receive(unsafe.Pointer(h)) }) //nolint:errcheck // d is never negative
}

// receive books a handoff on its target shard and runs the event it carries.
func (e *sdEnv) receive(arg unsafe.Pointer) {
	h := (*sdHandoff)(arg)
	e.xferred[h.target]++
	e.fire(h.target, h.id, h.depth)()
}

// fire is the program's event body: do work, observe, and — salt-driven
// — spawn same-shard children (quantized deltas, so distinct shards
// collide on identical instants and exercise the global tie-break),
// handoffs one hop or more out, and timer manipulations.
func (e *sdEnv) fire(shard int, id uint64, depth int) func() {
	return func() {
		s := e.sched
		e.counters[shard]++
		e.traces[shard] = append(e.traces[shard], sdEntry{id: id, at: s.Now()})
		if depth <= 0 {
			return
		}
		h := splitmix(id)
		kids := int(h % 3)
		for k := 0; k < kids; k++ {
			h = splitmix(h + uint64(k))
			target := int(h>>4) % sdShards
			childID := id*7 + uint64(k) + 1
			if target == shard {
				delta := Time((h>>12)%8) * sdQuantum
				s.At(s.Now()+delta, e.fire(target, childID, depth-1)) //nolint:errcheck
			} else {
				e.post(target, (sdHop + Time((h>>12)%sdDelays)*sdQuantum).Duration(), childID, depth-1)
			}
		}
		// Shard-local timer surgery: reset pushes a pending timer out
		// (consuming a fresh sequence number), stop cancels one.
		if h%5 == 0 && len(e.timers[shard]) > 0 {
			idx := int(h>>20) % len(e.timers[shard])
			if h%2 == 0 {
				e.timers[shard][idx].Reset(time.Duration((h>>24)%5) * 75 * time.Microsecond)
			} else {
				e.timers[shard][idx].Stop()
			}
		}
	}
}

// buildProgram decodes data into the initial schedule. Four bytes per
// op; op kinds cover near and far (overflow-heap) roots, timers, and
// sync points that read exact global state and may stop the run.
func (e *sdEnv) buildProgram(data []byte) {
	var id uint64
	for len(data) >= 4 {
		b0, b1, b2, b3 := data[0], data[1], data[2], data[3]
		data = data[4:]
		id += 1000
		shard := int(b1) % sdShards
		at := Time(b2%64) * sdQuantum
		switch b0 % 8 {
		case 6: // far root: beyond the wheel span, lands in the overflow heap
			far := Time(20*time.Second) + Time(b2)*sdQuantum
			e.sched.At(far, e.fire(shard, id, int(b3%3))) //nolint:errcheck
		case 5: // timer: fires as a plain observed event unless stopped
			tm := e.sched.After(at.Duration(), e.fire(shard, id, 0))
			e.timers[shard] = append(e.timers[shard], tm)
		case 4: // sync point: exact global read, stop past the threshold
			e.syncAt(at+sdQuantum/2, id)
		default: // near root
			e.sched.At(at, e.fire(shard, id, int(b3%4))) //nolint:errcheck
		}
	}
}

func (e *sdEnv) syncAt(at Time, id uint64) {
	e.sched.At(at, func() { //nolint:errcheck
		var sum int64
		for i := range e.counters {
			sum += e.counters[i] + e.xferred[i]
		}
		e.syncLog = append(e.syncLog, fmt.Sprintf("%d@%v=%d", id, at, sum))
		if sum > sdStopAt {
			e.sched.Stop()
		}
	})
}

// diff compares every observable of two runs, returning a description
// of the first divergence.
func (e *sdEnv) diff(o *sdEnv) string {
	for i := range e.counters {
		if e.counters[i] != o.counters[i] {
			return fmt.Sprintf("shard %d counter %d != %d", i, e.counters[i], o.counters[i])
		}
		if e.xferred[i] != o.xferred[i] {
			return fmt.Sprintf("shard %d xferred %d != %d", i, e.xferred[i], o.xferred[i])
		}
		if len(e.traces[i]) != len(o.traces[i]) {
			return fmt.Sprintf("shard %d trace length %d != %d", i, len(e.traces[i]), len(o.traces[i]))
		}
		for j := range e.traces[i] {
			if e.traces[i][j] != o.traces[i][j] {
				return fmt.Sprintf("shard %d trace[%d] %+v != %+v", i, j, e.traces[i][j], o.traces[i][j])
			}
		}
	}
	if e.sched.Now() != o.sched.Now() {
		return fmt.Sprintf("clock %v != %v", e.sched.Now(), o.sched.Now())
	}
	if len(e.syncLog) != len(o.syncLog) {
		return fmt.Sprintf("sync log length %d != %d", len(e.syncLog), len(o.syncLog))
	}
	for i := range e.syncLog {
		if e.syncLog[i] != o.syncLog[i] {
			return fmt.Sprintf("sync log[%d] %q != %q", i, e.syncLog[i], o.syncLog[i])
		}
	}
	if e.sched.Fired() != o.sched.Fired() {
		return fmt.Sprintf("fired %d != %d", e.sched.Fired(), o.sched.Fired())
	}
	return ""
}

// runShardDifferential drives the three runs, asserts bit-identical
// observables, and returns how many events the lanes fired.
func runShardDifferential(t *testing.T, data []byte) uint64 {
	t.Helper()
	run := func(fifo bool) *sdEnv {
		e := newSDEnv(fifo)
		e.buildProgram(data)
		e.run()
		return e
	}
	ref := run(false)
	lanes := run(true)
	if d := ref.diff(lanes); d != "" {
		t.Fatalf("handoffs through the lanes diverged from At closures: %s", d)
	}
	var wheel *sdEnv
	WheelOnly(func() { wheel = run(true) })
	if d := ref.diff(wheel); d != "" {
		t.Fatalf("handoffs through the wheel diverged from At closures: %s", d)
	}
	if st := wheel.sched.Stats(); st.FiredLane != 0 || st.Lanes != 0 {
		t.Fatalf("wheel-only run used lanes: %+v", st)
	}
	return lanes.sched.Stats().FiredLane
}

func TestShardDifferentialRandom(t *testing.T) {
	var laneFired uint64
	for seed := uint64(0); seed < 300; seed++ {
		data := make([]byte, 64)
		x := splitmix(seed * 11)
		for i := range data {
			x = splitmix(x)
			data[i] = byte(x)
		}
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			laneFired += runShardDifferential(t, data)
		})
	}
	if laneFired == 0 {
		t.Error("no handoff ever rode a lane: the programs never exercised the lane path")
	}
}

func TestShardDifferentialInvariants(t *testing.T) {
	old := InvariantChecks()
	SetInvariantChecks(true)
	defer SetInvariantChecks(old)
	for seed := uint64(0); seed < 40; seed++ {
		data := make([]byte, 48)
		x := splitmix(seed*13 + 7)
		for i := range data {
			x = splitmix(x)
			data[i] = byte(x)
		}
		runShardDifferential(t, data)
	}
}

// FuzzShardHandoff is the committed-corpus fuzz target for handoffs: the
// fuzzer explores program shapes, the lockstep oracle rejects any
// container-visible divergence.
func FuzzShardHandoff(f *testing.F) {
	f.Add([]byte{0, 0, 0, 3})
	f.Add([]byte{0, 1, 4, 3, 1, 2, 4, 3, 4, 0, 8, 0})
	f.Add([]byte{5, 0, 2, 0, 1, 0, 2, 2, 4, 1, 3, 0, 6, 3, 9, 2})
	f.Add(bytes.Repeat([]byte{2, 3, 1, 3}, 12))
	seed := make([]byte, 40)
	binary.LittleEndian.PutUint64(seed, 0xdecafbad)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			data = data[:256]
		}
		runShardDifferential(t, data)
	})
}

// TestShardSoloEquivalence pins a program whose roots all live on one
// shard — its handoffs still leave it — including timer surgery and
// horizon handling.
func TestShardSoloEquivalence(t *testing.T) {
	data := []byte{
		0, 0, 3, 3, 5, 0, 7, 0, 0, 0, 9, 2,
		4, 0, 12, 0, 6, 0, 1, 2, 0, 0, 30, 3,
	}
	runShardDifferential(t, data)
}

// pingPong builds the handoff hot-path workload on s: two shards, each
// re-arming a local ticker every 700ns that hands a payload to the other
// shard one hop (1µs) ahead through AfterFIFO. Returns per-destination
// delivery counters, which are the payloads themselves.
func pingPong(s *Scheduler) *[2]uint64 {
	var delivered [2]uint64
	recv := func(arg unsafe.Pointer) { *(*uint64)(arg)++ }
	for i := 0; i < 2; i++ {
		payload := unsafe.Pointer(&delivered[1-i])
		var tick func()
		tick = func() {
			s.AfterFIFO(nil, time.Microsecond, recv, payload)
			s.After(700*time.Nanosecond, tick)
		}
		// Staggered starts so the two tickers never share an instant.
		s.After(time.Duration(100+i*50)*time.Nanosecond, tick)
	}
	return &delivered
}

// TestCrossShardHandoffZeroAlloc pins the handoff path at zero allocations
// in steady state: lane entries carry the payload in place, and ticks come
// off the event free list. A regression here multiplies across every
// packet on every hop. inline drives one scheduler on the test goroutine;
// parallel drives two, each from its own goroutine, as the experiment
// layer's trial workers drive theirs.
func TestCrossShardHandoffZeroAlloc(t *testing.T) {
	check := func(t *testing.T, s *Scheduler, delivered *[2]uint64, allocs float64) {
		t.Helper()
		if delivered[0] == 0 || delivered[1] == 0 {
			t.Fatalf("workload did not hand off both ways: delivered=%v", *delivered)
		}
		if st := s.Stats(); st.Lanes != 1 || st.FiredLane == 0 {
			t.Fatalf("stats %+v: want the handoffs in one lane", st)
		}
		if allocs != 0 {
			t.Errorf("handoff allocates %.2f allocs/op, want 0", allocs)
		}
	}
	t.Run("inline", func(t *testing.T) {
		s := NewScheduler()
		delivered := pingPong(s)
		end := Time(200_000)
		s.RunUntil(end) // warm: sizes the lane ring and the free list
		allocs := testing.AllocsPerRun(100, func() {
			end += 7_000 // ten ticks per shard, twenty handoffs
			s.RunUntil(end)
		})
		check(t, s, delivered, allocs)
	})
	t.Run("parallel", func(t *testing.T) {
		const workers = 2
		var scheds [workers]*Scheduler
		var delivered [workers]*[2]uint64
		start := make([]chan struct{}, workers)
		done := make(chan struct{})
		for w := range scheds {
			scheds[w] = NewScheduler()
			delivered[w] = pingPong(scheds[w])
			start[w] = make(chan struct{})
			go func(s *Scheduler, start <-chan struct{}) {
				end := Time(200_000)
				s.RunUntil(end)
				done <- struct{}{}
				for range start {
					end += 7_000
					s.RunUntil(end)
					done <- struct{}{}
				}
			}(scheds[w], start[w])
		}
		defer func() {
			for _, c := range start {
				close(c)
			}
		}()
		for range scheds {
			<-done // warm
		}
		allocs := testing.AllocsPerRun(100, func() {
			for _, c := range start {
				c <- struct{}{}
			}
			for range start {
				<-done
			}
		})
		for w := range scheds {
			check(t, scheds[w], delivered[w], allocs)
		}
	})
}
