package httpapp

import (
	"fmt"
	"time"

	"tcptrim/internal/sim"
	"tcptrim/internal/tcp"
)

// RPC couples a request connection (front-end → back-end) with a response
// connection (back-end → front-end) over the same persistent pair: the
// paper's request/response multiplexing, with the response released only
// when the request actually arrives (plus a server think time) rather
// than at a pre-scheduled instant. The user-perceived latency spans from
// request release to response completion.
type RPC struct {
	sched    *sim.Scheduler
	request  *tcp.Conn // front-end → server
	response *tcp.Conn // server → front-end
	label    string
	out      *Collector
}

// NewRPC wires an RPC endpoint pair. request must carry data toward the
// server host and response back to the front-end.
func NewRPC(sched *sim.Scheduler, request, response *tcp.Conn, label string, out *Collector) *RPC {
	return &RPC{sched: sched, request: request, response: response, label: label, out: out}
}

// Call issues a request of reqBytes at the given instant; once the
// request is fully acknowledged (a sender-side proxy for "delivered and
// parsed"), the server thinks for think and then sends respBytes back.
// The recorded completion spans the whole exchange.
func (r *RPC) Call(at sim.Time, reqBytes, respBytes int, think time.Duration) error {
	if reqBytes <= 0 || respBytes <= 0 {
		return fmt.Errorf("httpapp: rpc sizes must be positive (req %d, resp %d)", reqBytes, respBytes)
	}
	r.out.NoteScheduled()
	_, err := r.sched.At(at, func() {
		issued := r.sched.Now()
		r.request.SendTrain(reqBytes, func(tcp.TrainResult) {
			r.sched.After(think, func() {
				r.response.SendTrain(respBytes, func(res tcp.TrainResult) {
					r.out.completed++
					r.out.add(r.label, respBytes, tcp.TrainResult{
						Released:  issued,
						Completed: res.Completed,
						Bytes:     respBytes,
					})
				})
			})
		})
	})
	if err != nil {
		r.out.scheduled--
		return fmt.Errorf("schedule rpc at %v: %w", at, err)
	}
	return nil
}

// ScatterGather is the paper's partition/aggregation pattern: one
// front-end fans a request out to every back-end worker and waits for all
// responses — the aggregation barrier whose latency is governed by the
// slowest worker (and thus by incast behaviour at the front-end's link).
type ScatterGather struct {
	sched   *sim.Scheduler
	workers []*RPC
	out     *Collector
}

// NewScatterGather groups worker RPCs that share a front-end.
func NewScatterGather(sched *sim.Scheduler, workers []*RPC, out *Collector) *ScatterGather {
	return &ScatterGather{sched: sched, workers: workers, out: out}
}

// Scatter issues the request to every worker at the given instant; done
// (if non-nil) receives the barrier latency — issue to last response —
// when the final worker answers.
func (s *ScatterGather) Scatter(at sim.Time, reqBytes, respBytes int, think time.Duration, done func(time.Duration)) error {
	remaining := len(s.workers)
	if remaining == 0 {
		return fmt.Errorf("httpapp: scatter over zero workers")
	}
	barrier := &Collector{}
	for i, w := range s.workers {
		// Track per-worker completion privately; the shared collector
		// still records individual responses through the worker's own
		// collector.
		probe := NewRPC(s.sched, w.request, w.response, fmt.Sprintf("worker%d", i+1), barrier)
		if err := probe.Call(at, reqBytes, respBytes, think); err != nil {
			return err
		}
	}
	var watch func()
	watch = func() {
		if barrier.Pending() > 0 {
			s.sched.After(100*time.Microsecond, watch)
			return
		}
		for _, r := range barrier.Responses() {
			s.out.Add(r.Label, r.Bytes, tcp.TrainResult{
				Released: r.Released, Completed: r.Completed, Bytes: r.Bytes,
			})
		}
		if done != nil {
			done(barrier.Last().Sub(at))
		}
	}
	if _, err := s.sched.At(at, watch); err != nil {
		return fmt.Errorf("schedule scatter at %v: %w", at, err)
	}
	return nil
}
