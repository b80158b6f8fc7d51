package experiment

import (
	"context"
	"runtime"
	"time"

	"tcptrim/internal/hybrid"
	"tcptrim/internal/sim"
)

// simEnv abstracts over the sequential scheduler and the sharded group so
// a runner is written once and honors Options.Shards. With one shard it
// is a thin wrapper around sim.NewScheduler() — the historical code path,
// byte for byte. With more it owns a ShardGroup whose shard 0 plays the
// old scheduler's role (topologies place the bottleneck and front-end
// there), and global reads — watch loops that poll a collector and stop
// the run — become sync events so they observe exactly the state a single
// core would present.
type simEnv struct {
	group *sim.ShardGroup
	sched *sim.Scheduler
	// ctx, when non-nil, ends the run early (runUntil polls it).
	ctx context.Context
	// stopped records that stop was called, which a run cut into slices
	// cannot tell from a slice reaching its end by the clock alone (the
	// stopping event may sit exactly on a slice boundary).
	stopped bool
}

// newSimEnv builds the environment opts asks for: its shard count (≤1 →
// sequential) and the context that may cancel the run.
func newSimEnv(opts Options) *simEnv {
	if shards := opts.shards(); shards > 1 {
		g := sim.NewShardGroup(shards)
		return &simEnv{group: g, sched: g.Shard(0), ctx: opts.Context}
	}
	return &simEnv{sched: sim.NewScheduler(), ctx: opts.Context}
}

// partition applies a topology's shard plan (its Shard method) when the
// env is sharded; sequential runs skip it. Call after the topology is
// fully built and before any tcp.Conn is created, so connections capture
// their hosts' final schedulers.
func (e *simEnv) partition(shard func(*sim.ShardGroup) error) error {
	if e.group == nil {
		return nil
	}
	return shard(e.group)
}

// syncAt schedules fn at t on shard s as a global event: under sharding
// every shard is quiesced at t when fn runs, so it may read cross-shard
// state (collector Pending, delivered-byte totals) and call stop.
func (e *simEnv) syncAt(s *sim.Scheduler, t sim.Time, fn func()) error {
	if e.group == nil {
		_, err := s.At(t, fn)
		return err
	}
	_, err := e.group.SyncAt(s, t, fn)
	return err
}

// syncAfter is syncAt relative to shard s's current instant; it is only
// legal from setup or from inside another sync event.
func (e *simEnv) syncAfter(s *sim.Scheduler, d time.Duration, fn func()) {
	if e.group == nil {
		s.After(d, fn)
		return
	}
	e.group.SyncAfter(s, d, fn)
}

// syncer exposes the shard group as a hybrid fleet's sync-point
// provider. The explicit nil for sequential runs matters: the fleet
// checks its Sync field against nil, and a typed-nil *ShardGroup would
// not compare equal.
func (e *simEnv) syncer() hybrid.Syncer {
	if e.group == nil {
		return nil
	}
	return e.group
}

// stop halts the run; under sharding it is only legal from a sync event.
func (e *simEnv) stop() {
	e.stopped = true
	if e.group == nil {
		e.sched.Stop()
		return
	}
	e.group.Stop()
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
		if next := e.nextEvent(); next > at {
			at = next
		}
		if at > t {
			at = t
		}
		if e.group == nil {
			e.sched.RunUntil(at)
		} else {
			e.group.RunUntil(at)
		}
		if e.ctx != nil {
			if err := e.ctx.Err(); err != nil {
				return err
			}
		}
	}
	return nil
}

// nextEvent returns the earliest pending instant on any shard, sim.End
// when nothing is pending.
func (e *simEnv) nextEvent() sim.Time {
	if e.group == nil {
		return e.sched.PeekTime()
	}
	next := sim.End
	for i := 0; i < e.group.NumShards(); i++ {
		if pt := e.group.Shard(i).PeekTime(); pt < next {
			next = pt
		}
	}
	return next
}

// trialWorkers is the worker-pool size for trial fan-outs when every
// trial runs a group of the given shard count: GOMAXPROCS divided by the
// shards each trial will occupy, floored at one, so concurrent trials ×
// shard goroutines never oversubscribe the machine.
func trialWorkers(shards int) int {
	if shards < 1 {
		shards = 1
	}
	w := runtime.GOMAXPROCS(0) / shards
	if w < 1 {
		w = 1
	}
	return w
}
