package tcp_test

// Policy objects outlive connections, and under hybrid fidelity the
// policies of a finished flow serve the next flow that needs a pair
// (hybrid.FleetConfig). That is safe if a recycled policy is a fresh one
// in every field; and a connection shell does not care which policies
// its previous life ran under. Both are pinned here, outside package tcp,
// because the policies worth testing live in packages that import it.

import (
	"reflect"
	"testing"
	"time"
	"unsafe"

	"tcptrim/internal/cc"
	"tcptrim/internal/core"
	"tcptrim/internal/netsim"
	"tcptrim/internal/sim"
	"tcptrim/internal/tcp"
)

// lossyNet is one sender and one receiver across a switch whose queues
// hold eight packets: a train of a few hundred segments overflows them,
// so loss recovery and the scoreboard run, under armed invariant checks.
type lossyNet struct {
	sched            *sim.Scheduler
	sender, receiver *tcp.Stack
}

func newLossyNet() *lossyNet {
	sched := sim.NewSchedulerWith(sim.Config{Checks: true})
	net := netsim.NewNetwork(sched)
	link := netsim.LinkConfig{Rate: netsim.Gbps, Delay: 50 * time.Microsecond,
		Queue: netsim.QueueConfig{CapPackets: 8}}
	hs, sw, hr := net.AddHost("sender"), net.AddSwitch("sw"), net.AddHost("receiver")
	net.Connect(hs, sw, link)
	net.Connect(sw, hr, link)
	return &lossyNet{sched, tcp.NewStack(net, hs), tcp.NewStack(net, hr)}
}

// lossyLife runs cfg's policies through a connection that loses packets,
// idles (so that TCP-TRIM probes) and sends again, then detaches it.
func lossyLife(t *testing.T, cfg tcp.Config) tcp.Stats {
	t.Helper()
	ln := newLossyNet()
	cfg.Sender, cfg.Receiver, cfg.Flow = ln.sender, ln.receiver, 7
	cfg.SACK, cfg.MinRTO, cfg.LinkRate = true, 5*time.Millisecond, netsim.Gbps
	c, err := tcp.NewConn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.SendTrain(400*tcp.DefaultMSS, nil)
	ln.sched.Run()
	ln.sched.After(50*time.Millisecond, func() { c.SendTrain(40*tcp.DefaultMSS, nil) })
	ln.sched.Run()
	st := c.Stats()
	if st.RetransSegs == 0 || st.FastRecoveries == 0 {
		t.Fatalf("the life lost too little to dirty a policy: %+v", st)
	}
	if _, err := c.Detach(); err != nil {
		t.Fatal(err)
	}
	return st
}

// settable returns v with its unexported fields writable.
func settable(v reflect.Value) reflect.Value {
	return reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
}

// dropStorage removes from the struct v what a recycled object may keep
// and a fresh one lacks: empty slices become nil, callbacks become nil.
// What is in a slice, and every other field, stays to be compared.
func dropStorage(v reflect.Value) {
	for i := 0; i < v.NumField(); i++ {
		f := settable(v.Field(i))
		switch f.Kind() {
		case reflect.Slice:
			if f.Len() == 0 {
				f.Set(reflect.Zero(f.Type()))
			}
		case reflect.Func:
			f.Set(reflect.Zero(f.Type()))
		case reflect.Struct:
			dropStorage(f)
		}
	}
}

// configWith returns a configuration that runs policy p, whichever of
// the two kinds it is, next to the default of the other kind.
func configWith(p any) (cfg tcp.Config) {
	switch p := p.(type) {
	case tcp.CongestionControl:
		cfg.CC = p
	case tcp.RecoveryPolicy:
		cfg.Recovery = p
	}
	return cfg
}

func TestRecycledPolicyEqualsFresh(t *testing.T) {
	trimCfg := core.Config{BaseRTT: 225 * time.Microsecond, Alpha: 0.5}
	for _, tc := range []struct {
		name  string
		fresh func() any
		// config names the fields that hold what the constructor was given
		// rather than what the policy learnt; Recycle keeps those.
		config []string
		// bare: the policy keeps its state in the connection, so Detach
		// alone leaves it as new and there is little for Recycle to do.
		bare bool
	}{
		{"TCP-TRIM", func() any { return core.New(trimCfg) }, []string{"cfg"}, false},
		{"Reno", func() any { return tcp.NewReno() }, nil, false},
		{"classic", func() any { return tcp.NewClassicRecovery() }, nil, true},
		{"RACK-TLP", func() any { return tcp.NewRACKTLP() }, nil, false},
		{"T-RACKs", func() any { return tcp.NewTRACKs() }, nil, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.fresh()
			lossyLife(t, configWith(p))
			v := reflect.ValueOf(p).Elem()
			if asNew := reflect.DeepEqual(p, tc.fresh()); asNew != tc.bare {
				t.Fatalf("detached after its life, the policy equals a fresh one: %t, want %t", asNew, tc.bare)
			}
			// Whatever the life left, leave more — in every scalar, known to
			// this test or not — except in what is configuration.
			kept := reflect.New(v.Type()).Elem()
			kept.Set(v)
			tcp.Scribble(v)
			for _, name := range tc.config {
				settable(v.FieldByName(name)).Set(settable(kept.FieldByName(name)))
			}
			p.(interface{ Recycle() }).Recycle()
			dropStorage(v)
			if want := tc.fresh(); !reflect.DeepEqual(p, want) {
				t.Errorf("recycled %s differs from a fresh one:\n got  %+v\n want %+v", tc.name, p, want)
			}
			// And it works: a second lossy life on the recycled object goes
			// exactly as a first life on a fresh one.
			again := lossyLife(t, configWith(p))
			if first := lossyLife(t, configWith(tc.fresh())); again != first {
				t.Errorf("a life on the recycled %s: %+v\non a fresh one: %+v", tc.name, again, first)
			}
		})
	}
}

// TestShellServesTrimThenCubic: a fleet has one kind of policy, an arena
// does not care. One shell carries a TCP-TRIM flow under classic recovery
// and then, as another flow, CUBIC under RACK-TLP, and the second goes
// exactly as it does on a connection of its own.
func TestShellServesTrimThenCubic(t *testing.T) {
	second := func(arena *tcp.Arena) (*tcp.Conn, tcp.Stats, tcp.TrainResult) {
		ln := newLossyNet()
		base := tcp.Config{Sender: ln.sender, Receiver: ln.receiver, Arena: arena,
			MinRTO: 5 * time.Millisecond, LinkRate: netsim.Gbps}
		var first *tcp.Conn
		if arena != nil {
			cfg := base
			cfg.Flow, cfg.CC, cfg.Recovery = 1, core.New(core.Config{}), tcp.NewClassicRecovery()
			c, err := tcp.NewConn(cfg)
			if err != nil {
				t.Fatal(err)
			}
			c.SendTrain(200*tcp.DefaultMSS, nil)
			ln.sched.Run()
			if c.Stats().RetransSegs == 0 {
				t.Fatal("the TCP-TRIM life lost nothing")
			}
			if _, err := c.Detach(); err != nil {
				t.Fatal(err)
			}
			first = c
		}
		cfg := base
		cfg.Flow, cfg.CC, cfg.Recovery, cfg.SACK = 2, cc.NewCubic(), tcp.NewRACKTLP(), true
		c, err := tcp.NewConn(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if arena != nil && c != first {
			t.Fatal("the CUBIC flow did not get the TCP-TRIM flow's shell")
		}
		var res tcp.TrainResult
		start := ln.sched.Now()
		c.SendTrain(200*tcp.DefaultMSS, func(r tcp.TrainResult) { res = r })
		ln.sched.Run()
		res.Released, res.Completed = res.Released-start, res.Completed-start
		return c, c.Stats(), res
	}
	_, wantStats, wantRes := second(nil)
	c, gotStats, gotRes := second(tcp.NewArena())
	if gotStats != wantStats || gotRes != wantRes || gotRes.Bytes != 200*tcp.DefaultMSS {
		t.Errorf("CUBIC on a shell TCP-TRIM used: %+v %+v\non a connection of its own: %+v %+v",
			gotStats, gotRes, wantStats, wantRes)
	}
	if c.CC().Name() != "CUBIC" || c.Recovery().Name() != "rack-tlp" {
		t.Errorf("the shell runs %s under %s", c.CC().Name(), c.Recovery().Name())
	}
}
