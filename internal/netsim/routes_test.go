package netsim_test

// The flat next-hop table against the table builder it replaced, on every
// topology the experiments run on.

import (
	"math/rand"
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

// TestFlatRoutesMatchReference compares, for every (node, dst) pair, the
// next-hop set (members and order) and, on nodes with several equal-cost
// hops, the pipe chosen for 1000 random flow ids.
func TestFlatRoutesMatchReference(t *testing.T) {
	nets := map[string]*netsim.Network{
		"star":      topology.NewStar(sim.NewScheduler(), 20, routeLink).Net,
		"tree-5":    topology.NewTwoLevelTree(sim.NewScheduler(), topology.TwoLevelTreeConfig{ToRs: 5}).Net,
		"tree-25":   topology.NewTwoLevelTree(sim.NewScheduler(), topology.TwoLevelTreeConfig{ToRs: 25}).Net,
		"multihop":  topology.NewMultiHop(sim.NewScheduler(), topology.MultiHopConfig{GroupSize: 5}).Net,
		"fattree-4": fatTree(t, 4).Net,
		"fattree-8": fatTree(t, 8).Net,
	}
	for name, net := range nets {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			ecmpNodes := 0
			for d := 0; d < net.Nodes(); d++ {
				dst := netsim.NodeID(d)
				want := net.ReferenceRoutes(dst)
				for u := 0; u < net.Nodes(); u++ {
					node := netsim.NodeID(u)
					if got := net.NextHops(node, dst); !slices.Equal(got, want[u]) {
						t.Fatalf("next hops %d->%d: got %v, reference %v", u, d, got, want[u])
					}
					if len(want[u]) < 2 {
						continue
					}
					ecmpNodes++
					for i := 0; i < 1000; i++ {
						flow := netsim.FlowID(rng.Uint64())
						ref := want[u][netsim.ECMPHash(flow, node)%uint64(len(want[u]))]
						if got := net.NextHop(node, dst, flow); got != ref {
							t.Fatalf("flow %d at %d->%d: took pipe %p, reference %p", flow, u, d, got, ref)
						}
					}
				}
			}
			if wantECMP := name == "fattree-4" || name == "fattree-8"; (ecmpNodes > 0) != wantECMP {
				t.Errorf("%d (node, dst) pairs have several equal-cost hops, want some only on a fat-tree", ecmpNodes)
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
