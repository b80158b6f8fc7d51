package experiment

// The live observability layer: a runner with a Progress hook armed
// streams what it is doing — time-series samples, completed responses,
// finished sweep cells, FCT distribution snapshots, retransmission
// breakdowns — while the simulation is still going. The batch runners
// never had this; the experiment service feeds its SSE streams from it.
//
// Publishing is strictly read-only with respect to the simulation: hooks
// fire from code paths that already execute (sampler Records, collector
// completions, trial returns), never from extra scheduled events, so an
// armed hook cannot perturb results — the same spec still produces
// byte-identical output, which is what makes the service's
// content-addressed result cache sound.

import (
	"sync/atomic"

	"tcptrim/internal/httpapp"
	"tcptrim/internal/metrics"
)

// ProgressEvent is one live observation from a running experiment.
type ProgressEvent struct {
	// Kind classifies the event:
	//   "sample"    one time-series point (Name = metric, At/Value set)
	//   "responses" completed-response count so far (Value = count)
	//   "cell"      one sweep cell or trial finished (Name, Done/Total)
	//   "fct"       completion-time distribution snapshot (Dist set)
	//   "retrans"   retransmission breakdown (Retrans set)
	Kind string `json:"kind"`
	// Name identifies the metric, cell, or protocol the event refers to.
	Name string `json:"name,omitempty"`
	// At is the simulated time of the observation in seconds.
	At float64 `json:"at,omitempty"`
	// Value is the sample value or running count.
	Value float64 `json:"value,omitempty"`
	// Done/Total track sweep-cell fan-out progress.
	Done  int `json:"done,omitempty"`
	Total int `json:"total,omitempty"`
	// Dist carries a distribution snapshot for "fct" events.
	Dist *metrics.Snapshot `json:"dist,omitempty"`
	// Retrans carries the per-trigger breakdown for "retrans" events.
	Retrans *httpapp.RetransBreakdown `json:"retrans,omitempty"`
}

// Progress receives live events from a running experiment. Publish must
// be safe for concurrent use — trial fan-outs call it from worker
// goroutines — and must return
// quickly (it runs on the simulation's critical path; buffer or drop,
// never block on I/O). Implementations must not touch simulation state.
type Progress interface {
	Publish(ProgressEvent)
}

// publish forwards ev to the Progress hook when one is armed.
func (o Options) publish(ev ProgressEvent) {
	if o.Progress != nil {
		o.Progress.Publish(ev)
	}
}

// interrupted returns the cancellation error once the run's Context is
// done, nil before then (and always nil without a Context). sweep polls
// it before each cell so a canceled service job stops simulating instead
// of starting the next one; inside a cell, simEnv.runUntil does the
// polling.
func (o Options) interrupted() error {
	if o.Context == nil {
		return nil
	}
	select {
	case <-o.Context.Done():
		return o.Context.Err()
	default:
		return nil
	}
}

// tapSeries streams every point of s as a "sample" event under name,
// with values scaled by scale (runners convert units in-place only
// after the run; the tap converts at publish time instead). No-op
// without an armed hook, keeping the batch path untouched.
func (o Options) tapSeries(name string, scale float64, s *metrics.Series) {
	if o.Progress == nil || s == nil {
		return
	}
	p := o.Progress
	s.Tap(func(pt metrics.TimePoint) {
		p.Publish(ProgressEvent{Kind: "sample", Name: name, At: pt.At.Seconds(),
			Value: pt.Value * scale})
	})
}

// replaySeries publishes every point of an already-recorded series as
// "sample" events — the warm-path counterpart of tapSeries, used when a
// cell cache hit skips the simulation that would have streamed them
// live. Cached series already carry their reporting units, so no scale
// applies. No-op without an armed hook.
func (o Options) replaySeries(name string, s *metrics.Series) {
	if o.Progress == nil || s == nil {
		return
	}
	for _, pt := range s.Points() {
		o.Progress.Publish(ProgressEvent{Kind: "sample", Name: name,
			At: pt.At.Seconds(), Value: pt.Value})
	}
}

// tapResponses streams a running completed-response count from coll as
// "responses" events. No-op without a hook.
func (o Options) tapResponses(coll *httpapp.Collector) {
	if o.Progress == nil || coll == nil {
		return
	}
	p := o.Progress
	completed := 0
	coll.Tap(func(r httpapp.Response) {
		completed++
		p.Publish(ProgressEvent{Kind: "responses", At: r.Completed.Seconds(),
			Value: float64(completed)})
	})
}

// cellCounter publishes "cell" completion events from parallel trial
// workers: done counts are claimed atomically so every event carries a
// distinct Done even when cells finish simultaneously.
type cellCounter struct {
	hook  Progress
	total int
	done  atomic.Int64
}

// cells returns a counter for a fan-out of total cells (nil-safe: with
// no hook armed the counter publishes nothing).
func (o Options) cells(total int) *cellCounter {
	return &cellCounter{hook: o.Progress, total: total}
}

// finished reports one completed cell under name.
func (c *cellCounter) finished(name string) {
	if c.hook == nil {
		return
	}
	c.hook.Publish(ProgressEvent{Kind: "cell", Name: name,
		Done: int(c.done.Add(1)), Total: c.total})
}
