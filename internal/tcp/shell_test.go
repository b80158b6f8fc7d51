package tcp

// Connection shells: an arena recycles the whole Conn, so a *Conn handed
// out by NewConn may have been another flow a moment ago. These tests pin
// what makes that safe — a recycled shell is a fresh connection in every
// field, a shell on the free list faults on use, and no shell is ever
// handed to two live connections.

import (
	"fmt"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"tcptrim/internal/netsim"
	"tcptrim/internal/sim"
)

// scribble overwrites every number, bool and string reachable from v
// without following a pointer, and stretches every slice to its capacity
// so that stale elements count as contents. It reaches unexported fields
// of any package (sim.Timer's, say) through their addresses, so a field
// added to Conn later is scribbled on without this test knowing its name.
func scribble(v reflect.Value) {
	v = reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(0x55)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(0x55)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(5.5)
	case reflect.String:
		v.SetString("stale")
	case reflect.Slice:
		v.SetLen(v.Cap())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			scribble(v.Field(i))
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			scribble(v.Index(i))
		}
	}
}

// comparableConn strips from a copy of a connection what legitimately differs
// between a fresh shell and a recycled one — the identity of the hot
// record, spare slice capacity — after checking each, so that everything
// else can be compared wholesale.
func comparableConn(t *testing.T, what string, c Conn) Conn {
	t.Helper()
	if c.trainN != 0 || len(c.sacked) != 0 || len(c.ooo) != 0 {
		t.Errorf("%s: slices not empty: trains=%d sacked=%d ooo=%d",
			what, c.trainN, len(c.sacked), len(c.ooo))
	}
	c.trains, c.sacked, c.ooo = nil, nil, nil
	if c.hot == nil {
		t.Fatalf("%s: no hot state", what)
	}
	if want := (connHot{cwnd: c.cfg.InitialCwnd, ssthresh: defaultSsthresh}); *c.hot != want {
		t.Errorf("%s: hot = %+v, want %+v", what, *c.hot, want)
	}
	c.hot = nil
	return c
}

func TestRecycledShellEqualsFreshConn(t *testing.T) {
	tn := newTestNet(t, gigLink(8))
	arena := NewArena()
	cfg := Config{
		Sender: tn.sender, Receiver: tn.receiver, Flow: 3, Arena: arena,
		CC: NewReno(), Recovery: NewRACKTLP(),
		SACK: true, DelayedAck: time.Millisecond, MinRTO: 5 * time.Millisecond,
	}
	c, err := NewConn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fresh := comparableConn(t, "fresh", *c)

	// A life that touches everything: overflow the 8-packet queue so the
	// scoreboard, the out-of-order list, recovery and the RTO all run.
	c.SendTrain(400*DefaultMSS, func(TrainResult) {})
	c.SendTrain(3*DefaultMSS, nil)
	tn.sched.Run()
	if st := c.Stats(); st.RetransSegs == 0 || st.AcksSent == 0 {
		t.Fatalf("the dirtying run lost nothing: %+v", st)
	}
	if cap(c.trains) == 0 || cap(c.sacked) == 0 || cap(c.ooo) == 0 {
		t.Fatalf("a slice was never used: trains=%d sacked=%d ooo=%d",
			cap(c.trains), cap(c.sacked), cap(c.ooo))
	}
	if _, err := c.Detach(); err != nil {
		t.Fatal(err)
	}
	// Whatever the run left behind, leave more: every scalar of the shell
	// on the free list is overwritten, known to this test or not.
	scribble(reflect.ValueOf(c).Elem())

	again, err := NewConn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if again != c {
		t.Fatal("NewConn did not take the detached shell")
	}
	if cap(again.trains) == 0 || cap(again.sacked) == 0 || cap(again.ooo) == 0 {
		t.Error("a recycled shell lost its slice storage")
	}
	recycled := comparableConn(t, "recycled", *again)
	if !reflect.DeepEqual(fresh, recycled) {
		t.Error("a recycled shell differs from a fresh connection of the same config")
		ft, rt := reflect.ValueOf(fresh), reflect.ValueOf(recycled)
		for i := 0; i < ft.NumField(); i++ {
			if f, r := fmt.Sprint(ft.Field(i)), fmt.Sprint(rt.Field(i)); f != r {
				t.Errorf("field %s: fresh %s, recycled %s", ft.Type().Field(i).Name, f, r)
			}
		}
	}

	// And it works: the same flow id carries a train on the recycled shell.
	var done bool
	again.SendTrain(20*DefaultMSS, func(TrainResult) { done = true })
	tn.sched.Run()
	if !done || again.DeliveredBytes() != 20*int64(DefaultMSS) {
		t.Errorf("recycled shell: done=%v delivered=%d", done, again.DeliveredBytes())
	}
}

func TestDetachedShellFaultsUntilReissued(t *testing.T) {
	tn := newTestNet(t, gigLink(100))
	arena := NewArena()
	cfg := Config{Sender: tn.sender, Receiver: tn.receiver, Flow: 1, Arena: arena}
	c, err := NewConn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Detach(); err != nil {
		t.Fatal(err)
	}
	if c.hot != nil {
		t.Fatal("a detached shell kept its hot state")
	}
	if _, err := c.Detach(); err == nil {
		t.Error("second Detach succeeded")
	}
	if arena.Live() != 0 || len(arena.shells) != 1 {
		t.Errorf("after a refused second Detach: %d live slots, %d shells", arena.Live(), len(arena.shells))
	}
	mustPanic(t, "SendTrain on a detached shell", func() { c.SendTrain(DefaultMSS, nil) })
	mustPanic(t, "Cwnd on a detached shell", func() { c.Cwnd() })
	mustPanic(t, "Quiescent on a detached shell", func() { c.Quiescent() })

	// A failed registration hands its shell straight back.
	cfg.Flow = 2
	if _, err := NewConn(cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := NewConn(cfg); err == nil {
		t.Fatal("duplicate flow accepted")
	}
	if arena.Live() != 1 || len(arena.shells) != 1 {
		t.Errorf("after a refused NewConn: %d live slots, %d shells", arena.Live(), len(arena.shells))
	}
}

// TestArenaShellsNoAliasingUnderChurn is TestArenaNoAliasingUnderChurn one
// level up: connections come and go through one arena in random order,
// and no shell or hot record is ever shared by two live connections.
func TestArenaShellsNoAliasingUnderChurn(t *testing.T) {
	tn := newTestNet(t, gigLink(100))
	arena := NewArena()
	rng := sim.NewRand(42)
	live := map[*Conn]int{} // shell → the brand its connection carries
	var order []*Conn
	brand := 0
	for step := 0; step < 5000; step++ {
		if len(order) == 0 || rng.Int63()%3 != 0 {
			brand++
			c, err := NewConn(Config{Sender: tn.sender, Receiver: tn.receiver,
				Flow: netsim.FlowID(brand), Arena: arena})
			if err != nil {
				t.Fatal(err)
			}
			if c.stats != (Stats{}) {
				t.Fatalf("shell reissued with stats %+v", c.stats)
			}
			for other := range live {
				if other == c || other.hot == c.hot {
					t.Fatalf("connection %d shares a shell or hot record with live %d", brand, live[other])
				}
			}
			// Stats ride through Detach and do not bear on quiescence.
			c.stats.ECESeen = brand
			live[c] = brand
			order = append(order, c)
			continue
		}
		i := int(rng.Int63()) % len(order)
		c := order[i]
		order = append(order[:i], order[i+1:]...)
		st, err := c.Detach()
		if err != nil {
			t.Fatal(err)
		}
		if st.Stats.ECESeen != live[c] {
			t.Fatalf("connection %d detached with brand %d", live[c], st.Stats.ECESeen)
		}
		delete(live, c)
	}
	if arena.Live() != len(live) {
		t.Errorf("Live = %d, want %d", arena.Live(), len(live))
	}
	if got := len(arena.shells) + len(live); got != arena.Cap() {
		t.Errorf("%d shells waiting + %d live != %d ever made", len(arena.shells), len(live), arena.Cap())
	}
	for c, b := range live {
		if c.stats.ECESeen != b {
			t.Errorf("connection %d now carries brand %d", b, c.stats.ECESeen)
		}
	}
}
