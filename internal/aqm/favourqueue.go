package aqm

import (
	"tcptrim/internal/sim"
)

// favourQueue implements FavourQueue (Anelli, Diana & Lochin, "A
// Parameterless Scheduler for Mitigating Flows' Latency", 2014): a
// drop-tail FIFO in which a packet whose flow has no other packet
// currently queued is "favoured" — enqueued ahead of the unfavoured
// backlog (behind earlier favoured packets). Short and starting flows,
// whose packets rarely find a queued sibling, thus skip the standing
// queue that long flows build; the rule needs no thresholds, timers, or
// randomness. Admission and ECN marking are exactly drop-tail's.
type favourQueue struct {
	DropTailDiscipline
	// queued counts this queue's packets per flow. Exact bookkeeping
	// relies on OnRemove firing for every departure, however the packet
	// left (delivered, head-dropped, drained).
	queued   map[uint64]int
	favoured int
}

func newFavourQueue(lim Limits) *favourQueue {
	return &favourQueue{DropTailDiscipline: MakeDropTail(lim), queued: make(map[uint64]int)}
}

func (f *favourQueue) Name() string { return "favour" }

func (f *favourQueue) OnEnqueue(p Pkt, q State, now sim.Time) EnqueueVerdict {
	v := f.DropTailDiscipline.OnEnqueue(p, q, now)
	if v.Drop {
		return v
	}
	if f.queued[p.Flow] == 0 {
		v.Favour = true
		f.favoured++
	}
	f.queued[p.Flow]++
	return v
}

func (f *favourQueue) Stats() Stats {
	st := f.DropTailDiscipline.Stats()
	st.Favoured = f.favoured
	return st
}

func (f *favourQueue) OnRemove(p Pkt) {
	if c := f.queued[p.Flow]; c <= 1 {
		delete(f.queued, p.Flow)
	} else {
		f.queued[p.Flow] = c - 1
	}
}
