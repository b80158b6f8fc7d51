package tcp

// Config.Reuse builds a connection in the object of one whose simulation
// has ended, the way a sweep worker's next cell builds its fleet inside
// the last cell's. These tests pin what makes that safe: the new life
// runs as on a fresh connection, nothing of the old life stays reachable,
// and the reuse and arena paths cannot be combined. They also pin the
// sizes completions report now that the train ring keeps no size.

import (
	"reflect"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"tcptrim/internal/sim"
)

// transcript records every event a connection reports.
type transcript []Event

func (tr *transcript) Record(ev Event) { *tr = append(*tr, ev) }

// reuseLife is a connection's life after its object is handed over: a
// deep train behind a few small ones over an 8-packet queue, so that
// recovery, SACK, the out-of-order list and delayed ACKs all run.
type reuseLife struct {
	events  transcript
	results []TrainResult
	stats   Stats
}

func reuseConfig(tn *testNet) Config {
	return Config{Sender: tn.sender, Receiver: tn.receiver, Flow: 5, SACK: true,
		DelayedAck: time.Millisecond, MinRTO: 5 * time.Millisecond}
}

func runReuseLife(t *testing.T, tn *testNet, reuse *Conn) (*Conn, reuseLife) {
	t.Helper()
	var life reuseLife
	cfg := reuseConfig(tn)
	cfg.Observer, cfg.Reuse = &life.events, reuse
	c, err := NewConn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{3 * DefaultMSS, 300 * DefaultMSS, 0, 1, 5*DefaultMSS + 7} {
		c.SendTrain(size, func(r TrainResult) { life.results = append(life.results, r) })
	}
	tn.sched.Run()
	life.stats = c.Stats()
	if life.stats.RetransSegs == 0 || len(life.results) != 5 {
		t.Fatalf("the life lost nothing or did not finish: %+v, %d results", life.stats, len(life.results))
	}
	return c, life
}

// dyingConn returns a connection cut mid-run with a backlog of trains
// whose callbacks belong to owner, SACK and out-of-order ranges on both
// sides, and its RTO and delayed-ACK timers pending.
func dyingConn(t *testing.T, tn *testNet, owner *[2]*int) *Conn {
	t.Helper()
	c := newTestConn(t, tn, reuseConfig(tn))
	for i := 0; i < 40; i++ {
		c.SendTrain(20*DefaultMSS, func(TrainResult) { runtime.KeepAlive(owner) })
	}
	for tn.sched.Step() {
		if c.trainN > 1 && len(c.sacked) > 0 && len(c.ooo) > 0 &&
			c.rtoTimer.Pending() && c.ackTimer.Pending() {
			return c
		}
	}
	t.Fatal("the connection never had a backlog, SACK and out-of-order ranges and both timers at once")
	return nil
}

// TestReusedConnMatchesFresh: a connection built in the object of one that
// died with everything in flight sends, counts and completes exactly as
// a fresh one, and keeps the dead one's slice storage.
func TestReusedConnMatchesFresh(t *testing.T) {
	sim.SetInvariantChecks(true)
	t.Cleanup(func() { sim.SetInvariantChecks(false) })
	_, want := runReuseLife(t, newTestNet(t, gigLink(8)), nil)

	tn := newTestNet(t, gigLink(8))
	old := dyingConn(t, tn, new([2]*int))
	tn.sched.Clear()
	tn = newTestNetOn(t, tn.sched, gigLink(8))
	c, got := runReuseLife(t, tn, old)
	if c != old {
		t.Fatal("NewConn did not build in the reused object")
	}
	if cap(c.trains) == 0 || cap(c.sacked) == 0 || cap(c.ooo) == 0 {
		t.Errorf("the reused connection lost slice storage: trains %d, sacked %d, ooo %d",
			cap(c.trains), cap(c.sacked), cap(c.ooo))
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("a reused connection's life differs from a fresh one's:\n got %d events, %+v, %+v\nwant %d events, %+v, %+v",
			len(got.events), got.stats, got.results, len(want.events), want.stats, want.results)
	}
}

// TestReusedConnReleasesOldWorld: once reused, nothing of the dead
// connection's simulation — here the owner of its trains' callbacks —
// is reachable from the new one.
func TestReusedConnReleasesOldWorld(t *testing.T) {
	collected := make(chan struct{})
	var c *Conn
	func() {
		tn := newTestNet(t, gigLink(8))
		owner := new([2]*int) // holds a pointer: not a tiny allocation
		runtime.SetFinalizer(owner, func(*[2]*int) { close(collected) })
		old := dyingConn(t, tn, owner)
		var err error
		next := newTestNet(t, gigLink(8))
		cfg := reuseConfig(next)
		cfg.Reuse = old
		if c, err = NewConn(cfg); err != nil {
			t.Fatal(err)
		}
	}()
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-collected:
			runtime.KeepAlive(c)
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("the reused connection still reaches its old trains' callbacks")
}

// TestReuseWithArenaRejected: an arena hands out its own shells, so a
// configuration naming both a connection to reuse and an arena is an
// error, and nothing is registered.
func TestReuseWithArenaRejected(t *testing.T) {
	tn := newTestNet(t, gigLink(8))
	old := newTestConn(t, tn, Config{Flow: 1})
	cfg := reuseConfig(tn)
	cfg.Reuse, cfg.Arena = old, NewArena()
	if c, err := NewConn(cfg); err == nil || c != nil {
		t.Fatalf("NewConn with Reuse and Arena returned %v, %v", c, err)
	}
	cfg.Reuse, cfg.Arena = nil, nil
	if _, err := NewConn(cfg); err != nil {
		t.Errorf("the rejected configuration's flow was left registered: %v", err)
	}
}

// TestTrainResultBytesEqualSize: a completion reports the size its train
// was sent with — zero and negative sizes included — on a fresh
// connection, on one restored at a nonzero offset, and on an arena shell
// in its second life.
func TestTrainResultBytesEqualSize(t *testing.T) {
	sizes := []int{0, 3 * DefaultMSS, 1, 0, 70 * DefaultMSS, -4, DefaultMSS + 1, 0}
	send := func(t *testing.T, tn *testNet, c *Conn) {
		t.Helper()
		got := make([]int, len(sizes))
		done := 0
		for i, size := range sizes {
			c.SendTrain(size, func(r TrainResult) { got[i] = r.Bytes; done++ })
		}
		tn.sched.Run()
		if done != len(sizes) || !reflect.DeepEqual(got, sizes) {
			t.Errorf("%d completions report %v, trains were sent with %v", done, got, sizes)
		}
	}
	tn := newTestNet(t, gigLink(8))
	arena := NewArena()
	cfg := Config{Sender: tn.sender, Receiver: tn.receiver, Flow: 2, Arena: arena, MinRTO: 5 * time.Millisecond}
	t.Run("fresh", func(t *testing.T) { send(t, tn, newTestConn(t, tn, Config{Flow: 1})) })
	var saved SavedState
	t.Run("arena", func(t *testing.T) {
		c, err := NewConn(cfg)
		if err != nil {
			t.Fatal(err)
		}
		send(t, tn, c)
		if saved, err = c.Detach(); err != nil {
			t.Fatal(err)
		}
		if saved.Offset == 0 {
			t.Fatal("the first life sent nothing")
		}
	})
	t.Run("restored", func(t *testing.T) {
		cfg := cfg
		cfg.Arena, cfg.Restore = nil, &saved
		c, err := NewConn(cfg)
		if err != nil {
			t.Fatal(err)
		}
		send(t, tn, c)
		if saved, err = c.Detach(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("shell", func(t *testing.T) {
		cfg := cfg
		cfg.Restore = &saved
		shells := len(arena.shells)
		c, err := NewConn(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if shells == 0 || len(arena.shells) != shells-1 {
			t.Fatal("the second life did not take the arena's shell")
		}
		send(t, tn, c)
	})
}

// TestConnSizeClass: a Conn, which holds pointers and is larger than 512
// bytes, carries an 8-byte malloc header, and with it stays in the
// 704-byte size class: 8 bytes more would make every connection a
// 768-byte allocation.
func TestConnSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Conn{}) + 8; size > 704 {
		t.Errorf("a Conn takes %d bytes with its malloc header, over the 704-byte size class", size)
	}
}
