package aqm

import (
	"time"

	"tcptrim/internal/sim"
)

// DropTailDiscipline is the paper's COTS switch queue: tail drop at
// capacity and instantaneous-queue ECN marking at enqueue time (DCTCP
// style). It is a verbatim extraction of the behavior historically
// hard-coded in netsim.Queue, and the default discipline — simulations
// that do not opt into AQM are byte-identical to the pre-aqm tree. It is
// exported so that a queue can hold its default discipline by value
// (MakeDropTail); Config.Build returns one on the heap. It keeps its one
// counter, not a whole Stats, because it lives in every drop-tail queue.
type DropTailDiscipline struct {
	lim   Limits
	marks int
}

// MakeDropTail returns a drop-tail discipline for a queue with limits lim.
func MakeDropTail(lim Limits) DropTailDiscipline { return DropTailDiscipline{lim: lim} }

func newDropTail(lim Limits) *DropTailDiscipline { return &DropTailDiscipline{lim: lim} }

// Name implements Discipline.
func (d *DropTailDiscipline) Name() string { return "droptail" }

// OnEnqueue implements Discipline.
func (d *DropTailDiscipline) OnEnqueue(p Pkt, q State, _ sim.Time) EnqueueVerdict {
	if !d.lim.admits(p, q) {
		return EnqueueVerdict{Drop: true}
	}
	if p.ECT && d.shouldMark(p, q) {
		d.marks++
		return EnqueueVerdict{Mark: true}
	}
	return EnqueueVerdict{}
}

// shouldMark is the historical instantaneous ECN threshold test, against
// the occupancy the arriving packet finds.
func (d *DropTailDiscipline) shouldMark(_ Pkt, q State) bool {
	if d.lim.ECNThresholdPackets > 0 && q.Len >= d.lim.ECNThresholdPackets {
		return true
	}
	if d.lim.ECNThresholdBytes > 0 && q.Bytes >= d.lim.ECNThresholdBytes {
		return true
	}
	return false
}

// OnDequeue implements Discipline.
func (d *DropTailDiscipline) OnDequeue(Pkt, time.Duration, State, sim.Time) DequeueVerdict {
	return DequeueVerdict{}
}

// OnRemove implements Discipline.
func (d *DropTailDiscipline) OnRemove(Pkt) {}

// Stats implements Discipline.
func (d *DropTailDiscipline) Stats() Stats { return Stats{Marks: d.marks} }
