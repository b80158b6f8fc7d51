// Package topology builds the paper's four evaluation topologies on the
// netsim substrate: the many-to-one star (Sections II.B, IV.A, IV.B), the
// two-level large-scale tree of Fig. 8(a), the dual-bottleneck multi-hop
// network of Fig. 11(a), and the k-pod fat-tree of the protocol comparison
// (Fig. 12).
package topology

import (
	"fmt"
	"time"

	"tcptrim/internal/netsim"
	"tcptrim/internal/sim"
)

// Star is the many-to-one scenario: N senders and one front-end behind a
// single switch.
type Star struct {
	Net      *netsim.Network
	Senders  []*netsim.Host
	FrontEnd *netsim.Host
	Switch   *netsim.Switch
	// Bottleneck is the switch→front-end pipe whose queue the paper
	// instruments.
	Bottleneck *netsim.Pipe
}

// NewStar builds a star with n senders, all links using cfg. The paper's
// default: 1 Gbps, 50 µs latency, 100-packet buffers.
func NewStar(sched *sim.Scheduler, n int, cfg netsim.LinkConfig) *Star {
	net := netsim.NewNetwork(sched)
	sw := net.AddSwitch("tor")
	s := &Star{Net: net, Switch: sw, Senders: make([]*netsim.Host, n)}
	var names netsim.Names
	size := 0
	for i := range s.Senders {
		size += netsim.NameLen("server", i+1)
	}
	names.Grow(size)
	for i := range s.Senders {
		s.Senders[i] = net.AddHost(names.Cut("server", i+1))
		net.Connect(s.Senders[i], sw, cfg)
	}
	s.FrontEnd = net.AddHost("frontend")
	s.Bottleneck, _ = net.Connect(sw, s.FrontEnd, cfg)
	return s
}

// DefaultStarLink returns the paper's star link configuration.
func DefaultStarLink(bufferPackets int) netsim.LinkConfig {
	return netsim.LinkConfig{
		Rate:  netsim.Gbps,
		Delay: 50 * time.Microsecond,
		Queue: netsim.QueueConfig{CapPackets: bufferPackets},
	}
}

// TwoLevelTree is the Fig. 8(a) large-scale topology: numToR switches,
// each with serversPerToR servers, aggregated by a fabric switch that
// feeds the single front-end.
type TwoLevelTree struct {
	Net *netsim.Network
	// Servers[t][i] is server i under ToR t.
	Servers  [][]*netsim.Host
	ToRs     []*netsim.Switch
	Fabric   *netsim.Switch
	FrontEnd *netsim.Host
	// FrontEndLink is the fabric→front-end pipe (the 10 Gbps cable
	// "nearest the front-end").
	FrontEndLink *netsim.Pipe
}

// TwoLevelTreeConfig sizes the tree. Zero values take the paper's
// settings: 42 servers per ToR, 1 Gbps/20 µs edges, 10 Gbps/10 µs root,
// 100-packet buffers.
type TwoLevelTreeConfig struct {
	ToRs          int
	ServersPerToR int
	EdgeLink      netsim.LinkConfig
	RootLink      netsim.LinkConfig
}

func (c *TwoLevelTreeConfig) applyDefaults() {
	if c.ServersPerToR == 0 {
		c.ServersPerToR = 42
	}
	if c.EdgeLink.Rate == 0 {
		c.EdgeLink = netsim.LinkConfig{
			Rate:  netsim.Gbps,
			Delay: 20 * time.Microsecond,
			Queue: netsim.QueueConfig{CapPackets: 100},
		}
	}
	if c.RootLink.Rate == 0 {
		c.RootLink = netsim.LinkConfig{
			Rate:  10 * netsim.Gbps,
			Delay: 10 * time.Microsecond,
			Queue: netsim.QueueConfig{CapPackets: 100},
		}
	}
}

// NewTwoLevelTree builds the Fig. 8(a) topology.
func NewTwoLevelTree(sched *sim.Scheduler, cfg TwoLevelTreeConfig) *TwoLevelTree {
	cfg.applyDefaults()
	net := netsim.NewNetwork(sched)
	t := &TwoLevelTree{Net: net, Fabric: net.AddSwitch("fabric")}
	var names netsim.Names
	size := 0
	for i := 1; i <= cfg.ToRs; i++ {
		size += netsim.NameLen("tor", i)
		for j := 1; j <= cfg.ServersPerToR; j++ {
			size += netsim.NameLen("s", i, j)
		}
	}
	names.Grow(size)
	for i := 0; i < cfg.ToRs; i++ {
		tor := net.AddSwitch(names.Cut("tor", i+1))
		t.ToRs = append(t.ToRs, tor)
		net.Connect(tor, t.Fabric, cfg.RootLink)
		servers := make([]*netsim.Host, cfg.ServersPerToR)
		for j := range servers {
			servers[j] = net.AddHost(names.Cut("s", i+1, j+1))
			net.Connect(servers[j], tor, cfg.EdgeLink)
		}
		t.Servers = append(t.Servers, servers)
	}
	t.FrontEnd = net.AddHost("frontend")
	t.FrontEndLink, _ = net.Connect(t.Fabric, t.FrontEnd, cfg.RootLink)
	return t
}

// AllServers returns every server across ToRs in a flat slice.
func (t *TwoLevelTree) AllServers() []*netsim.Host {
	var out []*netsim.Host
	for _, group := range t.Servers {
		out = append(out, group...)
	}
	return out
}

// MultiHop is the Fig. 11(a) dual-bottleneck topology: groups A and C
// attach to switch 1, group B and the group-D receivers to switch 2; the
// two 10 Gbps links (switch1→switch2 and switch2→front-end) are the
// bottlenecks; every other link is 1 Gbps.
type MultiHop struct {
	Net      *netsim.Network
	GroupA   []*netsim.Host
	GroupB   []*netsim.Host
	GroupC   []*netsim.Host
	GroupD   []*netsim.Host
	Switch1  *netsim.Switch
	Switch2  *netsim.Switch
	FrontEnd *netsim.Host
	// Bottleneck1 is switch1→switch2, Bottleneck2 is switch2→front-end.
	Bottleneck1 *netsim.Pipe
	Bottleneck2 *netsim.Pipe
}

// MultiHopConfig sizes the multi-hop network; zero values take the
// paper's: 10 hosts per group, 1 Gbps/50 µs edges, 10 Gbps bottlenecks,
// 100-packet buffers.
type MultiHopConfig struct {
	GroupSize      int
	EdgeLink       netsim.LinkConfig
	BottleneckLink netsim.LinkConfig
}

func (c *MultiHopConfig) applyDefaults() {
	if c.GroupSize == 0 {
		c.GroupSize = 10
	}
	if c.EdgeLink.Rate == 0 {
		c.EdgeLink = netsim.LinkConfig{
			Rate:  netsim.Gbps,
			Delay: 50 * time.Microsecond,
			Queue: netsim.QueueConfig{CapPackets: 100},
		}
	}
	if c.BottleneckLink.Rate == 0 {
		c.BottleneckLink = netsim.LinkConfig{
			Rate:  10 * netsim.Gbps,
			Delay: 50 * time.Microsecond,
			Queue: netsim.QueueConfig{CapPackets: 100},
		}
	}
}

// NewMultiHop builds the Fig. 11(a) topology.
func NewMultiHop(sched *sim.Scheduler, cfg MultiHopConfig) *MultiHop {
	cfg.applyDefaults()
	net := netsim.NewNetwork(sched)
	m := &MultiHop{
		Net:     net,
		Switch1: net.AddSwitch("switch1"),
		Switch2: net.AddSwitch("switch2"),
	}
	m.Bottleneck1, _ = net.Connect(m.Switch1, m.Switch2, cfg.BottleneckLink)
	m.FrontEnd = net.AddHost("frontend")
	m.Bottleneck2, _ = net.Connect(m.Switch2, m.FrontEnd, cfg.BottleneckLink)
	group := func(prefix string, sw *netsim.Switch) []*netsim.Host {
		hosts := make([]*netsim.Host, cfg.GroupSize)
		for i := range hosts {
			hosts[i] = net.AddHost(fmt.Sprintf("%s%d", prefix, i+1))
			net.Connect(hosts[i], sw, cfg.EdgeLink)
		}
		return hosts
	}
	m.GroupA = group("a", m.Switch1)
	m.GroupC = group("c", m.Switch1)
	m.GroupB = group("b", m.Switch2)
	m.GroupD = group("d", m.Switch2)
	return m
}

// FatTree is the canonical k-ary fat-tree: k pods, each with k/2 edge and
// k/2 aggregation switches, k/2 hosts per edge switch, and (k/2)² core
// switches; k³/4 hosts in total. Per-flow ECMP spreads flows over the
// equal-cost paths.
type FatTree struct {
	Net   *netsim.Network
	K     int
	Hosts []*netsim.Host
	Edge  [][]*netsim.Switch // [pod][i]
	Agg   [][]*netsim.Switch // [pod][i]
	Core  []*netsim.Switch
}

// NewFatTree builds a k-pod fat-tree with every link using cfg. k must be
// even and ≥ 2.
func NewFatTree(sched *sim.Scheduler, k int, cfg netsim.LinkConfig) (*FatTree, error) {
	if k < 2 || k%2 != 0 {
		return nil, fmt.Errorf("topology: fat-tree k must be even and >= 2, got %d", k)
	}
	net := netsim.NewNetwork(sched)
	f := &FatTree{Net: net, K: k}
	half := k / 2

	for c := 0; c < half*half; c++ {
		f.Core = append(f.Core, net.AddSwitch(fmt.Sprintf("core%d", c)))
	}
	for p := 0; p < k; p++ {
		edges := make([]*netsim.Switch, half)
		aggs := make([]*netsim.Switch, half)
		for i := 0; i < half; i++ {
			edges[i] = net.AddSwitch(fmt.Sprintf("edge%d-%d", p, i))
			aggs[i] = net.AddSwitch(fmt.Sprintf("agg%d-%d", p, i))
		}
		// Full bipartite edge↔agg inside the pod.
		for _, e := range edges {
			for _, a := range aggs {
				net.Connect(e, a, cfg)
			}
		}
		// Agg i connects to core switches [i·half, (i+1)·half).
		for i, a := range aggs {
			for j := 0; j < half; j++ {
				net.Connect(a, f.Core[i*half+j], cfg)
			}
		}
		// Hosts.
		for i, e := range edges {
			for h := 0; h < half; h++ {
				host := net.AddHost(fmt.Sprintf("h%d-%d-%d", p, i, h))
				net.Connect(host, e, cfg)
				f.Hosts = append(f.Hosts, host)
			}
		}
		f.Edge = append(f.Edge, edges)
		f.Agg = append(f.Agg, aggs)
	}
	return f, nil
}
