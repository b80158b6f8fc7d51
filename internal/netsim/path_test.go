package netsim_test

// Paths against the hop-by-hop walk they stand for, on the topologies the
// experiments run on, and their lifetime: routing state dropped, and a
// network recycled.

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"tcptrim/internal/netsim"
	"tcptrim/internal/sim"
	"tcptrim/internal/topology"
)

// pathNetworks builds the tree, the fat-tree (ECMP) and the faulted star
// afresh on every call, each on its own scheduler, with its hosts.
func pathNetworks(t *testing.T) map[string]func() (*netsim.Network, []*netsim.Host) {
	return map[string]func() (*netsim.Network, []*netsim.Host){
		"tree": func() (*netsim.Network, []*netsim.Host) {
			tree := topology.NewTwoLevelTree(sim.NewScheduler(), topology.TwoLevelTreeConfig{ToRs: 3, ServersPerToR: 4})
			return tree.Net, append(tree.AllServers(), tree.FrontEnd)
		},
		"fattree": func() (*netsim.Network, []*netsim.Host) {
			f := fatTree(t, 4)
			return f.Net, f.Hosts
		},
		"faulted-star": func() (*netsim.Network, []*netsim.Host) {
			star := topology.NewStar(sim.NewScheduler(), 6, routeLink)
			star.Bottleneck.InjectLoss(0.05, sim.NewRand(1))
			star.Bottleneck.InjectJitter(3*time.Microsecond, sim.NewRand(2))
			star.Bottleneck.InjectReorder(0.1, 20*time.Microsecond, sim.NewRand(3))
			star.Bottleneck.InjectDuplicate(0.1, sim.NewRand(4))
			return star.Net, append(star.Senders, star.FrontEnd)
		},
	}
}

// walk is the pipes hop-by-hop forwarding takes from src to dst for flow.
func walk(net *netsim.Network, src, dst netsim.NodeID, flow netsim.FlowID) []*netsim.Pipe {
	var pipes []*netsim.Pipe
	for node := src; node != dst; {
		pipe := net.NextHop(node, dst, flow)
		if pipe == nil {
			return nil
		}
		pipes = append(pipes, pipe)
		node = pipe.To().ID()
	}
	return pipes
}

// TestPathsMatchHopByHopWalk: for every (source, destination, flow) of
// hosts, the path resolved is the walk hop-by-hop forwarding takes, ECMP
// choices included.
func TestPathsMatchHopByHopWalk(t *testing.T) {
	for name, build := range pathNetworks(t) {
		t.Run(name, func(t *testing.T) {
			net, hosts := build()
			distinct := map[string]bool{}
			for _, src := range hosts {
				for _, dst := range hosts {
					for flow := netsim.FlowID(0); flow < 8; flow++ {
						p := net.Resolve(src.ID(), dst.ID(), flow)
						got, want := net.PathPipes(p, src.ID(), dst.ID()), walk(net, src.ID(), dst.ID(), flow)
						if !slices.Equal(got, want) || !net.Holds(p) {
							t.Fatalf("%s->%s flow %d: path %v (holds %v), hop by hop %v", src.Name(), dst.Name(), flow, got, net.Holds(p), want)
						}
						if src != dst && len(got) == 0 {
							t.Fatalf("%s->%s: no path on a connected network", src.Name(), dst.Name())
						}
						distinct[fmt.Sprint(src.ID(), dst.ID(), got)] = true
					}
				}
			}
			if pairs := len(hosts) * len(hosts); (len(distinct) > pairs) != (name == "fattree") {
				t.Errorf("%d distinct paths for %d host pairs: want several per pair on the fat-tree only", len(distinct), pairs)
			}
		})
	}
}

type arrival struct {
	id   uint64
	dst  netsim.NodeID
	at   sim.Time
	hops int
}

// sendAll has every host send packets of two flows to every other host,
// along paths when paths is set, else hop by hop, and returns what
// arrived where and when, and the network's counters.
func sendAll(t *testing.T, net *netsim.Network, hosts []*netsim.Host, paths bool) ([]arrival, netsim.NetworkStats) {
	sched := net.Scheduler()
	var got []arrival
	for _, h := range hosts {
		h.SetHandler(func(pkt *netsim.Packet) { got = append(got, arrival{pkt.ID, pkt.Dst, sched.Now(), pkt.Hops}) })
	}
	held := map[[3]int]*netsim.Path{}
	id := uint64(0)
	for round := 0; round < 3; round++ {
		for _, src := range hosts {
			for _, dst := range hosts {
				for flow := 0; flow < 2 && src != dst; flow++ {
					id++
					src, dst, flow, id := src, dst, flow, id
					at := sim.At(time.Duration(round*50+int(id%7)) * time.Microsecond)
					if _, err := sched.At(at, func() {
						pkt := src.AllocPacket()
						pkt.ID, pkt.Flow, pkt.Src, pkt.Dst, pkt.Size = id, netsim.FlowID(flow), src.ID(), dst.ID(), 1500
						if !paths {
							src.Send(pkt)
							return
						}
						key := [3]int{int(src.ID()), int(dst.ID()), flow}
						if held[key] == nil {
							held[key] = new(netsim.Path)
						}
						held[key].Send(src, pkt)
					}); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	sched.Run()
	return got, net.Stats()
}

// TestPathForwardingMatchesHopByHop: the same traffic sent along paths and
// hop by hop arrives identically — every packet, instant and hop count,
// faults included — and along paths the forwarding state is looked up
// only to resolve them: once per hop of each flow's path.
func TestPathForwardingMatchesHopByHop(t *testing.T) {
	for name, build := range pathNetworks(t) {
		t.Run(name, func(t *testing.T) {
			net, hosts := build()
			hop, hopStats := sendAll(t, net, hosts, false)
			net, hosts = build()
			along, pathStats := sendAll(t, net, hosts, true)
			if !slices.Equal(hop, along) {
				t.Fatalf("%d arrivals hop by hop, %d along paths, or they differ", len(hop), len(along))
			}
			resolved := 0
			for _, src := range hosts {
				for _, dst := range hosts {
					for flow := netsim.FlowID(0); flow < 2 && src != dst; flow++ {
						resolved += len(walk(net, src.ID(), dst.ID(), flow))
					}
				}
			}
			if pathStats.RoutingDrops != hopStats.RoutingDrops || pathStats.RouteLookups != resolved {
				t.Errorf("along paths %+v, want %d route lookups (the paths' hops) and hop by hop's %d routing drops (%+v)",
					pathStats, resolved, hopStats.RoutingDrops, hopStats)
			}
		})
	}
}

// TestPathDiesWithRoutingState: a host added or a cable connected after a
// path was resolved drops the routing state it was resolved in, and the
// next send resolves it afresh; a packet already on the wire goes on hop
// by hop and arrives as it would have without a path.
func TestPathDiesWithRoutingState(t *testing.T) {
	for _, change := range []string{"host", "cable"} {
		t.Run(change, func(t *testing.T) {
			run := func(paths bool) ([]arrival, netsim.NetworkStats, bool) {
				tree := topology.NewTwoLevelTree(sim.NewScheduler(), topology.TwoLevelTreeConfig{ToRs: 2, ServersPerToR: 2})
				net, sched := tree.Net, tree.Net.Scheduler()
				src, dst := tree.Servers[0][0], tree.Servers[1][1]
				var got []arrival
				dst.SetHandler(func(pkt *netsim.Packet) { got = append(got, arrival{pkt.ID, pkt.Dst, sched.Now(), pkt.Hops}) })
				var p netsim.Path
				send := func(id uint64) {
					pkt := src.AllocPacket()
					pkt.ID, pkt.Flow, pkt.Src, pkt.Dst, pkt.Size = id, 3, src.ID(), dst.ID(), 1500
					if paths {
						p.Send(src, pkt)
					} else {
						src.Send(pkt)
					}
				}
				send(1)
				sched.RunUntil(sched.Now().Add(time.Microsecond)) // the packet is on its first hop
				held := net.Holds(p)
				switch change {
				case "host":
					net.AddHost("late")
				case "cable":
					net.Connect(net.AddSwitch("late"), tree.Fabric, routeLink)
				}
				if net.Holds(p) {
					t.Fatal("a path outlived the routing state it was resolved in")
				}
				sched.Run()
				send(2)
				sched.Run()
				return got, net.Stats(), held && net.Holds(p)
			}
			hop, _, _ := run(false)
			along, st, held := run(true)
			if !slices.Equal(hop, along) || len(along) != 2 {
				t.Fatalf("arrivals along a path %v, hop by hop %v", along, hop)
			}
			if !held {
				t.Error("the path was not resolved afresh by the send after the change")
			}
			// 4 hops resolved, 3 walked hop by hop after the change, 4 resolved again.
			if st.RouteLookups != 4+3+4 {
				t.Errorf("%d route lookups, want 11: two resolutions and the stranded packet's last three hops", st.RouteLookups)
			}
		})
	}
}

// TestPathDiesWithRecycledNetwork: no path resolved on a network holds on
// the network that recycles it, though both have the same shape and were
// built in the same steps; the first send there resolves afresh.
func TestPathDiesWithRecycledNetwork(t *testing.T) {
	sched := sim.NewScheduler()
	cfg := topology.TwoLevelTreeConfig{ToRs: 2, ServersPerToR: 2}
	old := topology.NewTwoLevelTree(sched, cfg)
	src, dst := old.Servers[0][0], old.FrontEnd
	p := old.Net.Resolve(src.ID(), dst.ID(), 1)
	if !old.Net.Holds(p) {
		t.Fatal("resolved path does not hold")
	}
	sched.Clear()
	tree := topology.NewTwoLevelTree(sched, cfg)
	tree.Net.Recycle(old.Net)
	if tree.Net.Holds(p) {
		t.Fatal("a path of the recycled network holds on the one that recycled it")
	}
	arrived := 0
	tree.FrontEnd.SetHandler(func(*netsim.Packet) { arrived++ })
	from := tree.Servers[0][0]
	pkt := from.AllocPacket()
	pkt.Flow, pkt.Src, pkt.Dst, pkt.Size = 1, from.ID(), tree.FrontEnd.ID(), 1500
	p.Send(from, pkt)
	sched.Run()
	if arrived != 1 || !tree.Net.Holds(p) || !slices.Equal(tree.Net.PathPipes(p, from.ID(), tree.FrontEnd.ID()), walk(tree.Net, from.ID(), tree.FrontEnd.ID(), 1)) {
		t.Errorf("on the recycling network: %d arrived, path holds %v", arrived, tree.Net.Holds(p))
	}
}
