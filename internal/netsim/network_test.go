package netsim

import (
	"testing"
	"time"

	"tcptrim/internal/sim"
)

// star builds N hosts attached to one switch plus a front-end host, the
// paper's many-to-one scenario.
func star(sched *sim.Scheduler, n int, cfg LinkConfig) (*Network, []*Host, *Host) {
	net := NewNetwork(sched)
	sw := net.AddSwitch("tor")
	senders := make([]*Host, n)
	for i := range senders {
		senders[i] = net.AddHost("")
		net.Connect(senders[i], sw, cfg)
	}
	fe := net.AddHost("frontend")
	net.Connect(sw, fe, cfg)
	return net, senders, fe
}

func TestPacketDeliveryAcrossSwitch(t *testing.T) {
	sched := sim.NewScheduler()
	cfg := LinkConfig{Rate: Gbps, Delay: 50 * time.Microsecond, Queue: QueueConfig{CapPackets: 100}}
	_, senders, fe := star(sched, 2, cfg)

	var gotAt sim.Time
	var got *Packet
	fe.SetHandler(func(p *Packet) { got, gotAt = p, sched.Now() })

	pkt := &Packet{ID: 7, Flow: 1, Src: senders[0].ID(), Dst: fe.ID(), Size: 1500, Payload: 1460}
	sched.After(0, func() { senders[0].Send(pkt) })
	sched.Run()

	if got == nil {
		t.Fatal("packet not delivered")
	}
	if got.ID != 7 {
		t.Errorf("got packet %d", got.ID)
	}
	// Two hops: 2 × (12µs serialization + 50µs propagation) = 124µs.
	want := sim.At(124 * time.Microsecond)
	if gotAt != want {
		t.Errorf("delivered at %v, want %v", gotAt, want)
	}
}

func TestLoopbackDelivery(t *testing.T) {
	sched := sim.NewScheduler()
	net := NewNetwork(sched)
	h := net.AddHost("h")
	delivered := false
	h.SetHandler(func(*Packet) { delivered = true })
	h.Send(&Packet{Src: h.ID(), Dst: h.ID(), Size: 1500})
	if !delivered {
		t.Error("loopback packet not delivered synchronously")
	}
}

func TestNoRouteDrops(t *testing.T) {
	sched := sim.NewScheduler()
	net := NewNetwork(sched)
	a := net.AddHost("a")
	b := net.AddHost("b") // not connected
	a.Send(&Packet{Src: a.ID(), Dst: b.ID(), Size: 1500})
	sched.Run()
	if net.Stats().RoutingDrops != 1 {
		t.Errorf("RoutingDrops = %d, want 1", net.Stats().RoutingDrops)
	}
}

func TestSerializationBacklog(t *testing.T) {
	// Ten packets offered at once to a 1 Gbps pipe serialize back to
	// back: delivery k at (k+1)*12µs + 50µs.
	sched := sim.NewScheduler()
	net := NewNetwork(sched)
	a := net.AddHost("a")
	b := net.AddHost("b")
	net.Connect(a, b, LinkConfig{Rate: Gbps, Delay: 50 * time.Microsecond, Queue: QueueConfig{CapPackets: 100}})

	var arrivals []sim.Time
	b.SetHandler(func(*Packet) { arrivals = append(arrivals, sched.Now()) })
	sched.After(0, func() {
		for i := 0; i < 10; i++ {
			a.Send(&Packet{ID: uint64(i), Src: a.ID(), Dst: b.ID(), Size: 1500})
		}
	})
	sched.Run()

	if len(arrivals) != 10 {
		t.Fatalf("delivered %d, want 10", len(arrivals))
	}
	for k, at := range arrivals {
		want := sim.At(time.Duration(k+1)*12*time.Microsecond + 50*time.Microsecond)
		if at != want {
			t.Errorf("packet %d at %v, want %v", k, at, want)
		}
	}
}

func TestTailDropUnderOverload(t *testing.T) {
	sched := sim.NewScheduler()
	net := NewNetwork(sched)
	a := net.AddHost("a")
	b := net.AddHost("b")
	ab, _ := net.Connect(a, b, LinkConfig{Rate: Gbps, Delay: time.Microsecond, Queue: QueueConfig{CapPackets: 5}})

	delivered := 0
	b.SetHandler(func(*Packet) { delivered++ })
	sched.After(0, func() {
		for i := 0; i < 20; i++ {
			a.Send(&Packet{ID: uint64(i), Src: a.ID(), Dst: b.ID(), Size: 1500})
		}
	})
	sched.Run()

	// 1 in flight + 5 queued = 6 delivered, 14 dropped.
	if delivered != 6 {
		t.Errorf("delivered = %d, want 6", delivered)
	}
	if drops := ab.Queue().Stats().Dropped; drops != 14 {
		t.Errorf("drops = %d, want 14", drops)
	}
}

func TestManyToOneConvergesOnBottleneck(t *testing.T) {
	// 5 senders × 20 packets into one egress: all 100 arrive (queue big
	// enough), and the last arrival is governed by the bottleneck rate.
	sched := sim.NewScheduler()
	cfg := LinkConfig{Rate: Gbps, Delay: 50 * time.Microsecond, Queue: QueueConfig{CapPackets: 200}}
	_, senders, fe := star(sched, 5, cfg)

	count := 0
	var last sim.Time
	fe.SetHandler(func(*Packet) { count++; last = sched.Now() })
	sched.After(0, func() {
		for i, s := range senders {
			for k := 0; k < 20; k++ {
				s.Send(&Packet{ID: uint64(i*100 + k), Flow: FlowID(i), Src: s.ID(), Dst: fe.ID(), Size: 1500})
			}
		}
	})
	sched.Run()

	if count != 100 {
		t.Fatalf("delivered %d, want 100", count)
	}
	// 100 packets × 12µs serialization on the bottleneck ≈ 1.2ms floor.
	if last < sim.At(1200*time.Microsecond) {
		t.Errorf("last arrival %v is faster than bottleneck allows", last)
	}
}

func TestECMPSplitsFlows(t *testing.T) {
	// Two equal-cost paths between edge switches; many flows should use
	// both.
	sched := sim.NewScheduler()
	net := NewNetwork(sched)
	src := net.AddHost("src")
	dst := net.AddHost("dst")
	in := net.AddSwitch("in")
	outSw := net.AddSwitch("out")
	mid1 := net.AddSwitch("mid1")
	mid2 := net.AddSwitch("mid2")
	cfg := LinkConfig{Rate: Gbps, Delay: time.Microsecond, Queue: QueueConfig{CapPackets: 1000}}
	net.Connect(src, in, cfg)
	p1, _ := net.Connect(in, mid1, cfg)
	p2, _ := net.Connect(in, mid2, cfg)
	net.Connect(mid1, outSw, cfg)
	net.Connect(mid2, outSw, cfg)
	net.Connect(outSw, dst, cfg)

	delivered := 0
	dst.SetHandler(func(*Packet) { delivered++ })
	sched.After(0, func() {
		for f := 0; f < 64; f++ {
			src.Send(&Packet{ID: uint64(f), Flow: FlowID(f), Src: src.ID(), Dst: dst.ID(), Size: 1500})
		}
	})
	sched.Run()

	if delivered != 64 {
		t.Fatalf("delivered %d, want 64", delivered)
	}
	s1, s2 := p1.Stats().SentPackets, p2.Stats().SentPackets
	if s1+s2 != 64 {
		t.Fatalf("paths carried %d+%d, want 64 total", s1, s2)
	}
	if s1 == 0 || s2 == 0 {
		t.Errorf("ECMP did not split flows: %d vs %d", s1, s2)
	}
}

func TestECMPFlowStickiness(t *testing.T) {
	// All packets of one flow must take the same path (no reordering by
	// the network).
	sched := sim.NewScheduler()
	net := NewNetwork(sched)
	src := net.AddHost("src")
	dst := net.AddHost("dst")
	in := net.AddSwitch("in")
	outSw := net.AddSwitch("out")
	mid1 := net.AddSwitch("mid1")
	mid2 := net.AddSwitch("mid2")
	cfg := LinkConfig{Rate: Gbps, Delay: time.Microsecond, Queue: QueueConfig{CapPackets: 1000}}
	net.Connect(src, in, cfg)
	p1, _ := net.Connect(in, mid1, cfg)
	p2, _ := net.Connect(in, mid2, cfg)
	net.Connect(mid1, outSw, cfg)
	net.Connect(mid2, outSw, cfg)
	net.Connect(outSw, dst, cfg)

	sched.After(0, func() {
		for k := 0; k < 50; k++ {
			src.Send(&Packet{ID: uint64(k), Flow: 99, Src: src.ID(), Dst: dst.ID(), Size: 1500})
		}
	})
	sched.Run()

	s1, s2 := p1.Stats().SentPackets, p2.Stats().SentPackets
	if s1 != 0 && s2 != 0 {
		t.Errorf("flow split across paths: %d vs %d", s1, s2)
	}
	if s1+s2 != 50 {
		t.Errorf("carried %d, want 50", s1+s2)
	}
}

func TestRoutesInvalidatedByConnect(t *testing.T) {
	sched := sim.NewScheduler()
	net := NewNetwork(sched)
	a := net.AddHost("a")
	b := net.AddHost("b")
	delivered := 0
	b.SetHandler(func(*Packet) { delivered++ })

	a.Send(&Packet{Src: a.ID(), Dst: b.ID(), Size: 1500})
	sched.Run()
	if delivered != 0 {
		t.Fatal("delivered before any link existed")
	}

	cfg := LinkConfig{Rate: Gbps, Delay: time.Microsecond, Queue: QueueConfig{CapPackets: 10}}
	net.Connect(a, b, cfg)
	a.Send(&Packet{Src: a.ID(), Dst: b.ID(), Size: 1500})
	sched.Run()
	if delivered != 1 {
		t.Errorf("delivered = %d after link added, want 1", delivered)
	}

	// A cable costs one allocation for both pipes, their queues and their
	// drop-tail disciplines, and the growth of its ends' pipe lists (here
	// one: each host's first): no closure binds a pipe or a queue to its
	// network.
	hosts := make([]*Host, 1000)
	for i := range hosts {
		hosts[i] = net.AddHost("")
	}
	next := 0
	connect := func() { net.Connect(a, hosts[next], cfg); next++ }
	if allocs := testing.AllocsPerRun(len(hosts)-1, connect); allocs > 2 {
		t.Errorf("Connect costs %.2f allocations per cable, want at most 2", allocs)
	}
}

// TestConnectAfterTrafficReroutes: a table built and used by traffic is
// dropped by the next Connect, so a new shorter path is taken at once.
func TestConnectAfterTrafficReroutes(t *testing.T) {
	sched := sim.NewScheduler()
	cfg := LinkConfig{Rate: Gbps, Delay: time.Microsecond, Queue: QueueConfig{CapPackets: 10}}
	net, senders, fe := star(sched, 2, cfg)
	delivered := 0
	fe.SetHandler(func(*Packet) { delivered++ })
	send := func() {
		senders[0].Send(&Packet{Src: senders[0].ID(), Dst: fe.ID(), Size: 1500})
		sched.Run()
	}
	send()
	viaSwitch := net.nextHop(senders[0].ID(), fe.ID(), 0)
	if delivered != 1 || viaSwitch == nil || viaSwitch.to != net.nodes[0] {
		t.Fatalf("before the shortcut: delivered %d via %v, want 1 via the switch", delivered, viaSwitch)
	}
	direct, _ := net.Connect(senders[0], fe, cfg)
	if got := net.nextHop(senders[0].ID(), fe.ID(), 0); got != direct {
		t.Errorf("after Connect the next hop is still %v, want the direct pipe", got)
	}
	send()
	if delivered != 2 || direct.Stats().SentPackets != 1 {
		t.Errorf("delivered %d, direct pipe carried %d; want 2 and 1", delivered, direct.Stats().SentPackets)
	}
}

// TestUnroutableDestinationsDropAndRelease: a destination outside the
// network and one no cable reaches both cost a RoutingDrop and hand the
// pooled packet back.
func TestUnroutableDestinationsDropAndRelease(t *testing.T) {
	sched := sim.NewScheduler()
	cfg := LinkConfig{Rate: Gbps, Delay: time.Microsecond, Queue: QueueConfig{CapPackets: 10}}
	net, senders, _ := star(sched, 1, cfg)
	island := net.AddHost("island")
	for i, dst := range []NodeID{NodeID(net.Nodes() + 5), island.ID()} {
		pkt := net.AllocPacket()
		pkt.Src, pkt.Dst, pkt.Size = senders[0].ID(), dst, 1500
		senders[0].Send(pkt)
		sched.Run()
		if got := net.Stats().RoutingDrops; got != i+1 {
			t.Errorf("dst %d: RoutingDrops = %d, want %d", dst, got, i+1)
		}
		if live := net.LivePackets(); live != 0 {
			t.Errorf("dst %d: %d packets still live after the drop", dst, live)
		}
	}
}

// TestLateHostFailsClosed: a host added after traffic built routing state
// costs its first Send a RoutingDrop while it has no cable (the state built
// for the smaller network must not be indexed with the new id), and is
// reachable both ways once cabled.
func TestLateHostFailsClosed(t *testing.T) {
	sched := sim.NewScheduler()
	cfg := LinkConfig{Rate: Gbps, Delay: time.Microsecond, Queue: QueueConfig{CapPackets: 10}}
	net, senders, fe := star(sched, 2, cfg)
	delivered := 0
	fe.SetHandler(func(*Packet) { delivered++ })
	send := func(from *Host, dst NodeID) {
		pkt := from.AllocPacket()
		pkt.Src, pkt.Dst, pkt.Size = from.ID(), dst, 1500
		from.Send(pkt)
		sched.Run()
	}
	send(senders[0], fe.ID())
	late := net.AddHost("late")
	send(late, fe.ID())
	send(senders[0], late.ID())
	if drops, live := net.Stats().RoutingDrops, net.LivePackets(); drops != 2 || live != 0 || delivered != 1 {
		t.Fatalf("uncabled late host: %d routing drops, %d live packets, %d delivered; want 2, 0, 1", drops, live, delivered)
	}
	atLate := 0
	late.SetHandler(func(*Packet) { atLate++ })
	net.Connect(late, net.nodes[0], cfg)
	send(late, fe.ID())
	send(senders[0], late.ID())
	if drops, live := net.Stats().RoutingDrops, net.LivePackets(); drops != 2 || live != 0 || delivered != 2 || atLate != 1 {
		t.Errorf("cabled late host: %d routing drops, %d live, %d at the front end, %d at the late host; want 2, 0, 2, 1",
			drops, live, delivered, atLate)
	}
}

// TestNegativeDestinationDrops: an id below the network's range is as
// unroutable as one above it.
func TestNegativeDestinationDrops(t *testing.T) {
	sched := sim.NewScheduler()
	cfg := LinkConfig{Rate: Gbps, Delay: time.Microsecond, Queue: QueueConfig{CapPackets: 10}}
	net, senders, _ := star(sched, 1, cfg)
	for i, dst := range []NodeID{-1, -1 << 40} {
		pkt := net.AllocPacket()
		pkt.Src, pkt.Dst, pkt.Size = senders[0].ID(), dst, 1500
		senders[0].Send(pkt)
		sched.Run()
		if drops, live := net.Stats().RoutingDrops, net.LivePackets(); drops != i+1 || live != 0 {
			t.Errorf("dst %d: %d routing drops, %d live packets; want %d, 0", dst, drops, live, i+1)
		}
	}
}

// TestFrozenRoutesDoNotBuild: a destination's column, once built, is
// frozen until the topology changes — lookups toward it from any node read
// it and build nothing, a lookup toward another destination builds that
// column alone, and adding a node drops them all.
func TestFrozenRoutesDoNotBuild(t *testing.T) {
	cfg := LinkConfig{Rate: Gbps, Delay: time.Microsecond, Queue: QueueConfig{CapPackets: 10}}
	net, senders, fe := star(sim.NewScheduler(), 2, cfg)
	sw := net.nodes[0].ID()
	if net.nextHop(senders[0].ID(), fe.ID(), 0) == nil {
		t.Fatal("no route to the front end")
	}
	for _, from := range []NodeID{senders[1].ID(), sw, fe.ID()} {
		net.nextHop(from, fe.ID(), 0)
	}
	if net.routeBuilds != 1 || net.built[sw] {
		t.Errorf("lookups toward one destination ran %d BFS (switch column built: %v), want 1 and false", net.routeBuilds, net.built[sw])
	}
	if got := net.nextHop(senders[0].ID(), sw, 0); got == nil || got.To().ID() != sw {
		t.Errorf("sender routes to the switch via %v", got)
	}
	if net.routeBuilds != 2 || !net.built[sw] || !net.built[fe.ID()] {
		t.Errorf("a second destination: %d BFS, built %v; want 2 and both columns", net.routeBuilds, net.built)
	}
	net.AddHost("late")
	if len(net.built) != 0 {
		t.Fatal("adding a node kept the frozen columns")
	}
	net.nextHop(senders[0].ID(), fe.ID(), 0)
	if net.routeBuilds != 3 {
		t.Errorf("first lookup after the topology changed: %d BFS in all, want 3", net.routeBuilds)
	}
}

func TestHostAndSwitchNames(t *testing.T) {
	sched := sim.NewScheduler()
	net := NewNetwork(sched)
	h := net.AddHost("")
	s := net.AddSwitch("")
	if h.Name() == "" || s.Name() == "" {
		t.Error("auto-generated names must be non-empty")
	}
	named := net.AddHost("frontend")
	if named.Name() != "frontend" {
		t.Errorf("Name = %q", named.Name())
	}
	if net.Node(named.ID()) != Node(named) {
		t.Error("Node lookup by id failed")
	}
	if net.Node(NodeID(999)) != nil {
		t.Error("out-of-range lookup should be nil")
	}
}
