package experiment

import (
	"context"
	"math/rand"
	"sync"
	"time"

	"tcptrim/internal/hybrid"
	"tcptrim/internal/netsim"
	"tcptrim/internal/sim"
	"tcptrim/internal/workload"
)

// simEnv is a runner's scheduler and random sources, the network and
// fleet its last scenario built, the slab its response schedules are cut
// from, and what ends its run early: a stop from inside the simulation,
// or the context of Options.
type simEnv struct {
	sched *sim.Scheduler
	// net is the network the scenario kit last built on the environment,
	// nil before the first: the next one recycles its packets and queue
	// bands (netsim.Network.Recycle).
	net *netsim.Network
	// fleet is the fleet the kit last built on the environment, nil
	// before the first: the next one builds its packet-fidelity
	// connections in this one's objects (hybrid.FleetConfig.Recycle).
	fleet *hybrid.Fleet
	// trains is the slab the kit's response schedules are appended to,
	// emptied when the environment is reused.
	trains []workload.Train
	// ctx, when non-nil, ends the run early (runUntil polls it).
	ctx context.Context
	// stopped records that stop was called, which a run cut into slices
	// cannot tell from a slice reaching its end by the clock alone (the
	// stopping event may sit exactly on a slice boundary).
	stopped bool
	// rands are the sources rand has built; the first used of them are
	// handed out since the environment was built or cleared.
	rands []*rand.Rand
	used  int
	// next links the environment into an envList.
	next *simEnv
}

// newSimEnv returns an environment with an empty scheduler under the
// context that may cancel the run: one a finished cell of the same Run
// left in opts' env list, cleared, or else a fresh one. A cleared
// environment still holds the network and fleet its last cell built, for
// the next scenario to recycle, and its schedule slab, empty; nothing runs
// on that network again.
func newSimEnv(opts Options) *simEnv {
	e := opts.envs.pop()
	if e == nil {
		e = &simEnv{sched: sim.NewScheduler()}
	} else {
		e.sched.Clear()
		e.stopped, e.used = false, 0
		e.trains = e.trains[:0]
	}
	opts.envs.hold(e)
	e.ctx = opts.Context
	return e
}

// rand returns a source seeded with seed for the run to draw from alone:
// the stream sim.NewRand(seed) gives, from a source the environment
// keeps for its next run.
func (e *simEnv) rand(seed int64) *rand.Rand {
	if e.used == len(e.rands) {
		e.rands = append(e.rands, sim.NewRand(seed))
	} else {
		e.rands[e.used].Seed(seed)
	}
	e.used++
	return e.rands[e.used-1]
}

// envList is a free list of finished environments. Run keeps one for the
// whole run, shared by its workers; sweep gives each cell one of its own
// (run set), which takes from the Run's list and gives back, once the
// cell returns, the environment the cell built last. An earlier one is
// left to the collector, as before there were lists: a cell that runs
// several simulations in turn holds one world at a time. Outside a cell
// nothing is reused: pop on a Run's list, or on none, returns nil.
type envList struct {
	mu   sync.Mutex
	free *simEnv  // a Run's: its free environments, linked through next
	run  *envList // a cell's: its Run's list
	last *simEnv  // a cell's: the environment it built last
}

// forCell returns a new list for one cell of the Run whose list l is, or
// nil when l is nil.
func (l *envList) forCell() *envList {
	if l == nil {
		return nil
	}
	return &envList{run: l}
}

// pop takes a finished environment off the Run's list of a cell's list
// l; nil when there is none, or l is nil or not a cell's.
func (l *envList) pop() *simEnv {
	if l == nil || l.run == nil {
		return nil
	}
	r := l.run
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.free
	if e != nil {
		r.free, e.next = e.next, nil
	}
	return e
}

// hold records e as the environment the cell whose list l is built last.
func (l *envList) hold(e *simEnv) {
	if l != nil && l.run != nil {
		l.last = e
	}
}

// giveBack returns the environment a cell built last to its Run's list.
// It is called once the cell has returned; nothing of the cell runs on it
// again.
func (l *envList) giveBack() {
	if l == nil || l.last == nil {
		return
	}
	r := l.run
	r.mu.Lock()
	defer r.mu.Unlock()
	l.last.next, r.free = r.free, l.last
	l.last = nil
}

// stop halts the run.
func (e *simEnv) stop() {
	e.stopped = true
	e.sched.Stop()
}

// stopWhen checks done at from and every interval after, and stops the run
// the first time it holds: the drain watch of a cell whose background
// flows would otherwise run to the horizon for nothing.
func (e *simEnv) stopWhen(from sim.Time, every time.Duration, done func() bool) error {
	var watch func()
	watch = func() {
		if done() {
			e.stop()
			return
		}
		e.sched.After(every, watch)
	}
	_, err := e.sched.At(from, watch)
	return err
}

// runSlice is how much simulated time runUntil lets pass between two
// looks at the context: a fiftieth of a second-long release window, tens
// of milliseconds of host time in the densest run there is (fig8million
// at full scale), and a few hundred cheap calls in an ordinary cell.
const runSlice = 10 * time.Millisecond

// runUntil executes the simulation to the horizon t, to a stop from
// inside it, or until the context is done, in which case it returns the
// context's error. The run advances in slices of simulated time and the
// context is polled between slices: nothing is scheduled for it and no
// sequence number drawn, so the events that run, and their order, are
// those of one uninterrupted run to t. A slice reaches at least to the
// next pending event, so a stretch in which nothing happens (a faulted
// cell waiting out a backed-off RTO under a 30 s deadline) costs one
// slice, not one per runSlice of it.
func (e *simEnv) runUntil(t sim.Time) error {
	at := e.sched.Now()
	for at < t && !e.stopped {
		at = at.Add(runSlice)
		if next := e.sched.PeekTime(); next > at {
			at = next
		}
		if at > t {
			at = t
		}
		e.sched.RunUntil(at)
		if e.ctx != nil {
			if err := e.ctx.Err(); err != nil {
				return err
			}
		}
	}
	return nil
}
