package tcp

import (
	"testing"

	"tcptrim/internal/sim"
)

// ackTimes records when the cumulative ACK advanced, and to where.
type ackTimes []Event

func (a *ackTimes) Record(ev Event) {
	if ev.Kind == EventAck {
		*a = append(*a, ev)
	}
}

// TestDeepTrainBacklogCompletesInOrder keeps a backlog of a few hundred
// trains on one connection for thousands of completions, each completion
// releasing the next train from inside its callback (as a persistent HTTP
// server does): every train completes once, in release order, at the
// first instant the cumulative ACK covered its last byte, and the ring of
// trains in flight stays within twice the backlog instead of growing with
// the number ever sent.
func TestDeepTrainBacklogCompletesInOrder(t *testing.T) {
	tn := newTestNet(t, gigLink(1000))
	var acks ackTimes
	c := newTestConn(t, tn, Config{Observer: &acks})
	const backlog, total = 300, 3000
	type sent struct {
		released sim.Time
		end      int64
		bytes    int
	}
	var trains []sent
	var got []TrainResult
	maxCap := 0
	var release func()
	release = func() {
		i := len(trains)
		size := (1 + i%3) * DefaultMSS / 2
		trains = append(trains, sent{released: tn.sched.Now(), end: c.hot.bufEnd + int64(size), bytes: size})
		c.SendTrain(size, func(r TrainResult) {
			if len(got) != i {
				t.Fatalf("train %d completed as number %d", i, len(got))
			}
			got = append(got, r)
			maxCap = max(maxCap, cap(c.trains))
			if len(trains) < total {
				release()
			}
		})
	}
	for i := 0; i < backlog; i++ {
		release()
	}
	tn.sched.Run()
	if len(got) != total {
		t.Fatalf("%d of %d trains completed", len(got), total)
	}
	k := 0
	for i, tr := range trains {
		for acks[k].Ack < tr.end {
			k++
		}
		want := TrainResult{Released: tr.released, Completed: acks[k].At, Bytes: tr.bytes}
		if got[i] != want {
			t.Fatalf("train %d: %+v, want %+v", i, got[i], want)
		}
	}
	if maxCap > 2*backlog {
		t.Errorf("the train ring reached capacity %d for a backlog of %d", maxCap, backlog)
	}
	if c.trainN != 0 || !c.Quiescent() {
		t.Errorf("drained: %d trains left, quiescent %v", c.trainN, c.Quiescent())
	}
}
