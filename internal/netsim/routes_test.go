package netsim_test

// The per-node forwarding rows and the one-cable rule against the table
// builder they replaced, on every topology the experiments run on and on
// the shapes the one-cable rule has to get right.

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"tcptrim/internal/netsim"
	"tcptrim/internal/sim"
	"tcptrim/internal/topology"
)

var routeLink = netsim.LinkConfig{Rate: netsim.Gbps, Delay: 10 * time.Microsecond,
	Queue: netsim.QueueConfig{CapPackets: 100}}

func fatTree(t testing.TB, k int) *topology.FatTree {
	t.Helper()
	f, err := topology.NewFatTree(sim.NewScheduler(), k, routeLink)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// islands is three components and every one-cable shape: a star whose
// switch also carries a one-cable switch and a two-cable relay host with a
// leaf behind it, two hosts cabled back to back, and a host with no cable.
func islands() *netsim.Network {
	net := netsim.NewNetwork(sim.NewScheduler())
	sw := net.AddSwitch("sw")
	for i := 0; i < 3; i++ {
		net.Connect(net.AddHost(""), sw, routeLink)
	}
	net.Connect(net.AddSwitch("stub"), sw, routeLink)
	relay := net.AddHost("relay")
	net.Connect(relay, sw, routeLink)
	net.Connect(net.AddHost("leaf"), relay, routeLink)
	net.Connect(net.AddHost("pair-a"), net.AddHost("pair-b"), routeLink)
	net.AddHost("island")
	return net
}

func routedNetworks(t *testing.T) map[string]*netsim.Network {
	return map[string]*netsim.Network{
		"star":      topology.NewStar(sim.NewScheduler(), 20, routeLink).Net,
		"tree-5":    topology.NewTwoLevelTree(sim.NewScheduler(), topology.TwoLevelTreeConfig{ToRs: 5}).Net,
		"tree-25":   topology.NewTwoLevelTree(sim.NewScheduler(), topology.TwoLevelTreeConfig{ToRs: 25}).Net,
		"multihop":  topology.NewMultiHop(sim.NewScheduler(), topology.MultiHopConfig{GroupSize: 5}).Net,
		"fattree-4": fatTree(t, 4).Net,
		"fattree-8": fatTree(t, 8).Net,
		"islands":   islands(),
	}
}

// checkAgainstReference compares, for every (node, dst) pair — dst == node
// and unreachable pairs included — the next-hop set (members and order)
// and, on nodes with several equal-cost hops, the pipe chosen for 1000
// random flow ids. only says which destinations to check. It returns the
// number of pairs that had several equal-cost hops.
func checkAgainstReference(t *testing.T, net *netsim.Network, only func(netsim.NodeID) bool) int {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	ecmpPairs := 0
	for d := 0; d < net.Nodes(); d++ {
		dst := netsim.NodeID(d)
		if !only(dst) {
			continue
		}
		want := net.ReferenceRoutes(dst)
		for u := 0; u < net.Nodes(); u++ {
			node := netsim.NodeID(u)
			if got := net.NextHops(node, dst); !slices.Equal(got, want[u]) {
				t.Fatalf("next hops %d->%d: got %v, reference %v", u, d, got, want[u])
			}
			if len(want[u]) < 2 {
				continue
			}
			ecmpPairs++
			for i := 0; i < 1000; i++ {
				flow := netsim.FlowID(rng.Uint64())
				ref := want[u][netsim.ECMPHash(flow, node)%uint64(len(want[u]))]
				if got := net.NextHop(node, dst, flow); got != ref {
					t.Fatalf("flow %d at %d->%d: took pipe %p, reference %p", flow, u, d, got, ref)
				}
			}
		}
	}
	return ecmpPairs
}

// TestFlatRoutesMatchReference: the forwarding decision equals the
// reference builder's everywhere, and building it costs one BFS per
// distinct destination and a row per node with several cables, not a
// table per destination.
func TestFlatRoutesMatchReference(t *testing.T) {
	for name, net := range routedNetworks(t) {
		t.Run(name, func(t *testing.T) {
			ecmpPairs := checkAgainstReference(t, net, func(netsim.NodeID) bool { return true })
			if wantECMP := name == "fattree-4" || name == "fattree-8"; (ecmpPairs > 0) != wantECMP {
				t.Errorf("%d (node, dst) pairs have several equal-cost hops, want some only on a fat-tree", ecmpPairs)
			}
			multi := 0
			for u := 0; u < net.Nodes(); u++ {
				if len(net.PipesFrom(netsim.NodeID(u))) > 1 {
					multi++
				}
			}
			nodes, rows := net.Nodes(), net.RouteRows()
			if rows != multi {
				t.Errorf("%d forwarding rows for %d nodes with several cables", rows, multi)
			}
			if builds := net.RouteBuilds(); builds > nodes+rows {
				t.Errorf("%d BFS runs for %d distinct destinations and %d rows", builds, nodes, rows)
			}
			if ecmpPairs > 0 {
				return // the ECMP side table is per (node, dst) pair, as before
			}
			if bytes, limit := net.RoutingBytes(), rows*nodes*4+64*nodes; bytes > limit {
				t.Errorf("routing state holds %d bytes, want at most %d (%d rows x %d nodes x 4 + O(nodes))",
					bytes, limit, rows, nodes)
			}
		})
	}
}

// TestIslandsOneCableRule spells out what the one-cable rule decides on
// the hand-built shapes, beyond agreeing with the reference.
func TestIslandsOneCableRule(t *testing.T) {
	net := islands()
	id := map[string]netsim.NodeID{}
	for u := 0; u < net.Nodes(); u++ {
		id[net.Node(netsim.NodeID(u)).Name()] = netsim.NodeID(u)
	}
	cases := []struct {
		from, to string
		via      string // "" = routing drop
	}{
		{"stub", "leaf", "sw"},         // a one-cable switch forwards like a host
		{"stub", "stub", ""},           // dst == node
		{"stub", "pair-a", ""},         // another component
		{"leaf", "host1", "relay"},     // behind a host that has a row
		{"relay", "leaf", "leaf"},      // a two-cable host chooses
		{"relay", "host1", "sw"},       //
		{"pair-a", "pair-b", "pair-b"}, // back to back
		{"pair-a", "host1", ""},
		{"host1", "island", ""},
		{"island", "host1", ""},
		{"island", "island", ""},
	}
	for _, c := range cases {
		via := ""
		if pipe := net.NextHop(id[c.from], id[c.to], 7); pipe != nil {
			via = pipe.To().Name()
		}
		if via != c.via {
			t.Errorf("%s -> %s goes via %q, want %q", c.from, c.to, via, c.via)
		}
	}
}

// TestFrozenRoutesMatchReference: once every host destination's column is
// built (one BFS each), lookups toward hosts from every node route exactly
// as the reference and build nothing more: a built column is frozen.
func TestFrozenRoutesMatchReference(t *testing.T) {
	for name, net := range routedNetworks(t) {
		t.Run(name, func(t *testing.T) {
			isHost := func(id netsim.NodeID) bool { _, ok := net.Node(id).(*netsim.Host); return ok }
			hosts := 0
			for u := 0; u < net.Nodes(); u++ {
				if dst := netsim.NodeID(u); isHost(dst) {
					net.NextHop(0, dst, 0)
					hosts++
				}
			}
			if builds := net.RouteBuilds(); builds != hosts {
				t.Fatalf("building %d host columns ran %d BFS", hosts, builds)
			}
			checkAgainstReference(t, net, isHost)
			if builds := net.RouteBuilds(); builds != hosts {
				t.Errorf("lookups toward built columns ran %d more BFS", builds-hosts)
			}
		})
	}
}

// TestForwardZeroAllocOnceRoutesWarm sends across pods of a fat-tree (four
// ECMP decisions per packet): with the destination's table built and the
// pools warm, forwarding allocates nothing.
func TestForwardZeroAllocOnceRoutesWarm(t *testing.T) {
	f := fatTree(t, 4)
	sched := f.Net.Scheduler()
	src, dst := f.Hosts[0], f.Hosts[len(f.Hosts)-1]
	delivered := 0
	dst.SetHandler(func(*netsim.Packet) { delivered++ })
	flow := netsim.FlowID(0)
	send := func() {
		flow++
		pkt := src.AllocPacket()
		pkt.Src, pkt.Dst, pkt.Flow, pkt.Size = src.ID(), dst.ID(), flow, 1500
		src.Send(pkt)
		sched.RunUntil(sched.Now().Add(time.Millisecond))
	}
	for i := 0; i < 64; i++ {
		send()
	}
	if allocs := testing.AllocsPerRun(500, send); allocs != 0 {
		t.Errorf("forwarding over warm routes allocates %.2f allocs/packet, want 0", allocs)
	}
	if want := 64 + 501; delivered != want {
		t.Errorf("delivered %d packets, want %d", delivered, want)
	}
	if drops := f.Net.Stats().RoutingDrops; drops != 0 {
		t.Errorf("%d routing drops on a connected fat-tree", drops)
	}
}

// TestRecycledRoutesMatchReference: a network that recycled another's
// routing storage, every column of which was built on a topology of
// another shape, smaller or larger, routes exactly as the reference; and
// a tree recycling a larger tree's storage builds its first column
// without allocating.
func TestRecycledRoutesMatchReference(t *testing.T) {
	all := func(netsim.NodeID) bool { return true }
	names := []string{"star", "tree-5", "tree-25", "multihop", "fattree-4", "fattree-8", "islands"}
	olds, news := routedNetworks(t), routedNetworks(t)
	for _, name := range names {
		checkAgainstReference(t, olds[name], all)
	}
	for i, name := range names {
		prev := names[(i+len(names)-1)%len(names)]
		net := news[name]
		net.Recycle(olds[prev])
		t.Run(name+"<-"+prev, func(t *testing.T) { checkAgainstReference(t, net, all) })
	}

	big := topology.NewTwoLevelTree(sim.NewScheduler(), topology.TwoLevelTreeConfig{ToRs: 25}).Net
	checkAgainstReference(t, big, all)
	net := topology.NewTwoLevelTree(sim.NewScheduler(), topology.TwoLevelTreeConfig{ToRs: 5}).Net
	net.Recycle(big)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	net.NextHop(0, 1, 0)
	runtime.ReadMemStats(&after)
	if allocs := after.Mallocs - before.Mallocs; allocs != 0 {
		t.Errorf("the first route build on recycled storage allocated %d times, want 0", allocs)
	}
	checkAgainstReference(t, net, all)
}
