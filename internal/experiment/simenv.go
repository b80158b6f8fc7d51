package experiment

import (
	"context"
	"time"

	"tcptrim/internal/sim"
)

// simEnv is a runner's scheduler plus what ends its run early: a stop from
// inside the simulation, or the context of Options.
type simEnv struct {
	sched *sim.Scheduler
	// ctx, when non-nil, ends the run early (runUntil polls it).
	ctx context.Context
	// stopped records that stop was called, which a run cut into slices
	// cannot tell from a slice reaching its end by the clock alone (the
	// stopping event may sit exactly on a slice boundary).
	stopped bool
}

// newSimEnv builds a fresh scheduler under the context that may cancel
// the run.
func newSimEnv(opts Options) *simEnv {
	return &simEnv{sched: sim.NewScheduler(), ctx: opts.Context}
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
