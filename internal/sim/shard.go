package sim

import (
	"runtime"
	"time"
)

// defaultParallel reports whether window segments should default to
// goroutine fan-out: only worthwhile with more than one core available.
func defaultParallel() bool { return runtime.GOMAXPROCS(0) > 1 }

// Conservative parallel discrete-event execution (PDES).
//
// A ShardGroup partitions a simulation into shards, each owning a full
// Scheduler (timing wheel + overflow heap). The group advances virtual
// time in windows [W, W+L): W is the globally earliest pending event
// (each shard answers with one wheel findMin: a bitmap scan plus a scan
// of the earliest slot's few events) and L is the
// lookahead — the minimum propagation delay of any cross-shard link. An
// event executing at t < W+L can influence another shard no earlier than
// t+delay >= W+L, so every shard may safely dispatch all of its events
// below the window end with no further coordination: the classic
// conservative synchronization argument, with the window doubling as the
// deadlock-avoidance mechanism (each round strictly advances W by at
// least one dispatched event, and W never regresses, so no shard ever
// waits on a cycle of empty horizons).
//
// Determinism is exact, not just statistical: the merged dispatch order
// reproduces the single-core total order (at, seq) bit for bit. The
// subtlety is seq assignment — on one core the counter numbers armings
// in global execution order, which a parallel window cannot observe.
// Each shard therefore numbers window-local armings provisionally
// (base+k in shard-local call order) and logs every consumption; at the
// window barrier a k-way merge replays the shards' exec streams in
// global (at, seq) order — resolving provisional keys through a fixup
// table as it goes — and rebinds every surviving arming, in merged
// order, to the shared counter. The result is the exact numbering a
// single core would have produced, so ties at equal instants break
// identically and figure outputs are byte-identical at any shard count.
//
// Cross-shard handoff is Post: during a window it is logged (one
// provisional number, no shared mutation, zero allocations); the barrier
// applies it — payload transfer first, then the destination event filed
// under its definitive number. Outside windows (setup, solo runs, sync
// events) Post applies immediately off the shared counter, which is
// exactly the single-core call order.
//
// Two fast paths keep the sequential overhead near zero:
//
//   - Solo: when only one shard has events below the window end, it runs
//     in shared mode (no logging, no merge) until another shard could
//     wake: the earliest foreign pending event, the horizon, or the
//     earliest arrival it posts itself (minPost). Single-shard groups
//     spend their whole life here.
//
//   - Sync events: experiment logic that must observe exact global state
//     (watch loops polling in-flight counts, invariant sweeps) registers
//     through SyncAt/SyncAfter. The window containing a sync point stops
//     every shard just short of its (at, seq) key, merges, then runs the
//     sync event alone single-threaded — it sees precisely the state a
//     single core would have at that instant, may Stop the group, and
//     consumes numbering identically.
type ShardGroup struct {
	shards    []*Scheduler
	lookahead Time
	seq       uint64 // shared flat sequence counter
	stopped   bool
	running   bool
	parallel  bool
	syncs     []syncPoint
	// minPost tracks the earliest cross-shard arrival posted during a
	// solo run; the solo loop stops strictly before it so the windowed
	// path arbitrates any ties.
	minPost Time

	// Barrier-merge scratch, reused across windows so steady-state
	// windows allocate nothing.
	fixup   [][]uint64
	execCur []int
	callCur []int
	// Parallel fan-out machinery, built once: segFns are the per-shard
	// segment thunks (spawning a prebuilt func value allocates nothing),
	// limAt/limSeq carry the window limit to them, done is the barrier.
	segFns []func()
	limAt  Time
	limSeq uint64
	done   chan int
}

// syncPoint registers a pending sync event by its exact firing key.
type syncPoint struct {
	at    Time
	seq   uint64
	shard int
}

// NewShardGroup creates k empty shard schedulers sharing one sequence
// counter. Lookahead defaults to 1ns; callers with cross-shard links set
// the real value with SetLookahead before running.
func NewShardGroup(k int) *ShardGroup {
	if k < 1 {
		k = 1
	}
	g := &ShardGroup{
		lookahead: 1,
		minPost:   End,
		parallel:  defaultParallel(),
	}
	g.shards = make([]*Scheduler, k)
	for i := range g.shards {
		g.shards[i] = &Scheduler{group: g, shardIdx: i}
	}
	g.fixup = make([][]uint64, k)
	g.execCur = make([]int, k)
	g.callCur = make([]int, k)
	g.done = make(chan int, k)
	g.segFns = make([]func(), k)
	for i := range g.shards {
		s := g.shards[i]
		g.segFns[i] = func() {
			s.runSegment(g.limAt, g.limSeq)
			g.done <- 1
		}
	}
	return g
}

// Shard returns shard i's scheduler.
func (g *ShardGroup) Shard(i int) *Scheduler { return g.shards[i] }

// NumShards returns the number of shards in the group.
func (g *ShardGroup) NumShards() int { return len(g.shards) }

// SetLookahead sets the conservative window width: the minimum
// cross-shard propagation delay. It must be positive.
func (g *ShardGroup) SetLookahead(d Time) {
	if d <= 0 {
		panic("sim: shard lookahead must be positive")
	}
	g.lookahead = d
}

// Lookahead returns the conservative window width.
func (g *ShardGroup) Lookahead() Time { return g.lookahead }

// SetParallel forces window segments onto goroutines (true) or inline
// sequential execution (false). The default follows GOMAXPROCS: on a
// single-core host parallel dispatch only adds synchronization cost, and
// the merged result is bit-identical either way.
func (g *ShardGroup) SetParallel(on bool) { g.parallel = on }

// Stop halts the group's run loop after the currently executing event.
func (g *ShardGroup) Stop() { g.stopped = true }

// Len returns the total number of live pending events across shards.
func (g *ShardGroup) Len() int {
	n := 0
	for _, s := range g.shards {
		n += s.live
	}
	return n
}

// Fired returns the total number of events executed across shards.
func (g *ShardGroup) Fired() uint64 {
	var n uint64
	for _, s := range g.shards {
		n += s.fired
	}
	return n
}

// Now returns the frontier virtual time: the maximum shard clock (shard
// clocks may trail between barriers; they are equalized at sync points,
// horizons, and stop).
func (g *ShardGroup) Now() Time {
	t := Start
	for _, s := range g.shards {
		if s.now > t {
			t = s.now
		}
	}
	return t
}

// takeSeq draws the next number off the shared counter. Only reachable
// from single-threaded phases (setup, solo, sync, barrier): parallel
// segments run in logging mode, which numbers locally.
func (g *ShardGroup) takeSeq() uint64 {
	v := g.seq
	g.seq++
	return v
}

// SyncAt schedules fn at absolute instant t on shard s and registers it
// as a synchronization point: it will execute alone, single-threaded,
// with every shard quiesced at exactly the global state a single core
// would present — so it may read cross-shard state and call Stop.
func (g *ShardGroup) SyncAt(s *Scheduler, t Time, fn func()) (Timer, error) {
	if s.logging {
		panic("sim: SyncAt from inside a parallel shard segment")
	}
	tm, err := s.At(t, fn)
	if err != nil {
		return tm, err
	}
	g.syncs = append(g.syncs, syncPoint{at: t, seq: tm.ev.seq, shard: s.shardIdx})
	return tm, nil
}

// SyncAfter schedules fn d after shard s's current instant as a sync
// point (see SyncAt). Negative d is clamped to zero.
func (g *ShardGroup) SyncAfter(s *Scheduler, d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	tm, err := g.SyncAt(s, s.now.Add(d), fn)
	if err != nil {
		return Timer{}
	}
	return tm
}

// Run executes events until every shard drains or Stop is called.
func (g *ShardGroup) Run() { g.RunUntil(End) }

// RunUntil executes events in the exact single-core total order until
// every queue drains, the horizon t passes, or Stop is called. As with
// Scheduler.RunUntil, events at t inclusive run, and on a non-End
// horizon all shard clocks are left at t.
func (g *ShardGroup) RunUntil(t Time) {
	if g.running {
		return
	}
	g.running = true
	g.stopped = false
	defer func() { g.running = false }()

	for !g.stopped {
		// Global minimum pending instant; O(shards) wheel findMin calls.
		w := End
		for _, s := range g.shards {
			if pt := s.PeekTime(); pt < w {
				w = pt
			}
		}
		if w == End || w > t {
			break
		}
		hi := w + g.lookahead
		if hi < w { // saturate on overflow
			hi = End
		}
		if t != End && hi > t+1 {
			hi = t + 1
		}

		// A registered sync point is a hard fence for the solo fast
		// path: a sync callback may arm events on any shard (the hybrid
		// fleet's driver materializes connections and releases their
		// trains from one), and runSolo's stop limit is computed from
		// foreign pending events before dispatch — it cannot see
		// arrivals a mid-run sync creates, so the active shard's clock
		// could run past them and a later cross-shard post would land in
		// its past. Solo therefore stops strictly before the earliest
		// sync instant, and a window that reaches it takes the full
		// barrier path, where dispatchSync quiesces and equalizes every
		// shard at the sync instant before the callback runs. Stale
		// registrations (cancelled timers) cost at most one windowed
		// pass each; nextSync/dispatchSync discard them there.
		syncAt := End
		for _, sp := range g.syncs {
			if sp.at < syncAt {
				syncAt = sp.at
			}
		}

		// Solo fast path: a single active shard below the window end
		// runs in exact shared mode as far as conservatism allows.
		active, second := -1, End
		solo := syncAt >= hi
		if syncAt < second {
			second = syncAt
		}
		for i, s := range g.shards {
			pt := s.PeekTime()
			if pt >= hi {
				if pt < second {
					second = pt
				}
				continue
			}
			if active >= 0 {
				solo = false
				if pt < second {
					second = pt
				}
				continue
			}
			active = i
		}
		if solo {
			g.runSolo(g.shards[active], second, t)
			continue
		}
		g.runWindow(w, hi)
	}

	if !g.stopped && t != End {
		for _, s := range g.shards {
			s.advanceTo(t)
		}
	}
}

// runSolo dispatches the only active shard in shared mode until the
// first instant any other shard could act: the earliest foreign pending
// event (second), the horizon, or the earliest arrival this run posts
// cross-shard. Shared mode draws the shared counter in program order, so
// this path is exactly the single-core execution.
func (g *ShardGroup) runSolo(s *Scheduler, second Time, t Time) {
	end := second
	if t != End && end > t+1 {
		end = t + 1
	}
	g.minPost = End
	for !g.stopped {
		ev := s.peekEvent()
		if ev == nil {
			return
		}
		lim := end
		if g.minPost < lim {
			lim = g.minPost
		}
		if ev.at >= lim {
			return
		}
		s.dispatch(ev)
	}
}

// runWindow executes one conservative window [w, hi): every shard
// dispatches its events below the limit on its own (optionally parallel)
// segment under provisional numbering, then the barrier merge restores
// the global numbering and applies cross-shard posts. If a sync point
// falls inside the window, the limit stops just short of it and the sync
// event then runs alone against the exact quiesced global state.
func (g *ShardGroup) runWindow(w, hi Time) {
	limAt, limSeq := hi, uint64(0)
	sync := g.nextSync(w)
	if sync >= 0 && g.syncs[sync].at < hi {
		limAt, limSeq = g.syncs[sync].at, g.syncs[sync].seq
	} else {
		sync = -1
	}

	base := g.seq
	for _, s := range g.shards {
		s.logging = true
		s.seq = base
		s.calls = s.calls[:0]
		s.execs = s.execs[:0]
	}
	if g.parallel {
		g.runSegmentsParallel(limAt, limSeq)
	} else {
		for _, s := range g.shards {
			s.runSegment(limAt, limSeq)
		}
	}
	for _, s := range g.shards {
		s.logging = false
	}
	g.merge(base)

	if sync >= 0 {
		g.dispatchSync(sync)
	}
}

// runSegmentsParallel fans the window segments out to one goroutine per
// shard. Segments touch only shard-local state (logging mode defers all
// cross-shard effects), so the only synchronization is the barrier. The
// thunks and window-limit fields are prebuilt/reused: a steady-state
// window performs no allocations.
func (g *ShardGroup) runSegmentsParallel(limAt Time, limSeq uint64) {
	g.limAt, g.limSeq = limAt, limSeq
	for _, fn := range g.segFns {
		go fn()
	}
	for range g.shards {
		<-g.done
	}
}

// merge interleaves the shards' window exec streams into the global
// (at, seq) total order, rebinding every logged consumption — local
// armings and cross-shard posts alike — to definitive numbers off the
// shared counter in exactly the order a single core would have drawn
// them. Provisional keys (>= base) resolve through the per-shard fixup
// tables, which fill strictly ahead of need: an exec's arming is always
// logged by an earlier exec of the same shard (or predates the window),
// so its definitive number is bound before the exec can surface as a
// stream head.
func (g *ShardGroup) merge(base uint64) {
	for i := range g.shards {
		g.fixup[i] = g.fixup[i][:0]
		g.execCur[i] = 0
		g.callCur[i] = 0
	}
	for {
		best := -1
		var bestAt Time
		var bestSeq uint64
		for i, s := range g.shards {
			c := g.execCur[i]
			if c >= len(s.execs) {
				continue
			}
			e := s.execs[c]
			rs := e.seq
			if rs >= base {
				rs = g.fixup[i][rs-base]
			}
			if best < 0 || e.at < bestAt || (e.at == bestAt && rs < bestSeq) {
				best, bestAt, bestSeq = i, e.at, rs
			}
		}
		if best < 0 {
			break
		}
		s := g.shards[best]
		e := s.execs[g.execCur[best]]
		g.execCur[best]++
		for n := int32(0); n < e.nCalls; n++ {
			rec := &s.calls[g.callCur[best]]
			g.callCur[best]++
			gseq := g.takeSeq()
			g.fixup[best] = append(g.fixup[best], gseq)
			if rec.post {
				if rec.xfer != nil {
					rec.xfer()
				}
				rec.dst.scheduleSeq(rec.at, rec.fn, gseq)
			} else if rec.ev.gen == rec.gen && rec.ev.state == evScheduled {
				s.rewriteSeq(rec.ev, gseq)
			}
			// A record that no longer stands (its event fired, was
			// cancelled, or re-armed within the window) still consumed
			// its number — a single core burned one there too.
		}
	}
	if invariantChecks.Load() {
		for i, s := range g.shards {
			if g.callCur[i] != len(s.calls) {
				panic("sim: shard merge did not consume every logged call")
			}
		}
	}
	// Drop closure references so the scratch slices don't pin payloads
	// until the next window reuses them.
	for _, s := range g.shards {
		for i := range s.calls {
			s.calls[i] = callRec{}
		}
	}
}

// nextSync returns the index of the earliest registered sync point,
// lazily discarding entries already passed by the window start.
func (g *ShardGroup) nextSync(w Time) int {
	best := -1
	for i := 0; i < len(g.syncs); {
		sp := g.syncs[i]
		if sp.at < w {
			g.syncs[i] = g.syncs[len(g.syncs)-1]
			g.syncs = g.syncs[:len(g.syncs)-1]
			continue
		}
		if best < 0 || sp.at < g.syncs[best].at ||
			(sp.at == g.syncs[best].at && sp.seq < g.syncs[best].seq) {
			best = i
		}
		i++
	}
	return best
}

// dispatchSync runs one sync event alone in shared mode. All events with
// smaller keys have executed and all shard clocks are equalized to its
// instant first, so the callback observes exactly the global state a
// single core would have. A registration whose event no longer heads its
// shard (cancelled or re-armed since) is simply dropped.
func (g *ShardGroup) dispatchSync(idx int) {
	sp := g.syncs[idx]
	g.syncs[idx] = g.syncs[len(g.syncs)-1]
	g.syncs = g.syncs[:len(g.syncs)-1]

	owner := g.shards[sp.shard]
	ev := owner.peekEvent()
	if ev == nil || ev.at != sp.at || ev.seq != sp.seq {
		return
	}
	for _, s := range g.shards {
		s.advanceTo(sp.at)
	}
	owner.dispatch(ev)
}
