package netsim

import (
	"fmt"
	"math"
	"time"

	"tcptrim/internal/sim"
)

// LinkConfig describes one full-duplex cable. The same queue configuration
// is applied to both directions.
type LinkConfig struct {
	Rate  Bitrate
	Delay time.Duration
	Queue QueueConfig
}

// NetworkStats aggregates network-wide drop/forwarding counters that are
// not attributable to a single queue.
type NetworkStats struct {
	// RoutingDrops counts packets dropped for lack of a route or because
	// the hop limit was exceeded.
	RoutingDrops int
	// RouteLookups counts forwarding-state lookups, one per hop: of a path
	// resolved (Path.Send), and of a packet forwarded without a live path.
	RouteLookups int
}

// Network is a topology of hosts and switches plus its routing state.
// Build the topology first (AddHost/AddSwitch/Connect), then run traffic;
// routes are computed lazily per destination and dropped by every change
// to the topology.
//
// Forwarding state lives where a switch keeps it: only a node with more
// than one cable ever chooses, so only such a node has a row, indexed by
// destination. Everything else forwards through its one cable to whatever
// its component label says it can reach. On the Fig. 8 tree that is a row
// per switch (11 at 10 ToRs, 26 at 25) instead of an entry per (host,
// destination) pair, small enough to stay in cache between a flow's packets.
type Network struct {
	sched *sim.Scheduler
	nodes []Node
	// out[node] = that node's outgoing pipes. NodeIDs are dense (register
	// hands them out sequentially), so adjacency and routes live in flat
	// slices: the per-packet forward path indexes instead of hashing.
	out [][]*Pipe
	// rows[node][dst], for a node with several cables (nil otherwise), is
	// the index into out[node] of the only shortest-path pipe toward dst,
	// noRoute (node is dst or cannot reach it), or ^i for ecmp[i]: the
	// equal-cost pipes of a node that has several (fat-tree switches), in
	// out[node] order. Column dst is valid once built[dst]; one BFS from
	// dst fills it in every row and labels dst's component in comp (0 =
	// not labelled yet; two nodes reach each other iff their labels are
	// equal and nonzero). built is empty while the state is dropped; the
	// rows are cut from flat. Dropping keeps the storage of rows, flat,
	// comp and built for the next reset (and Recycle hands it on).
	rows  [][]int32
	flat  []int32
	ecmp  [][]*Pipe
	comp  []int32
	built []bool
	// buildRoutes' scratch, reused across destinations, and the number of
	// BFS runs so far, for the build-cost tests.
	bfsDist     []int32
	bfsQueue    []NodeID
	routeBuilds int
	nextID      NodeID
	// routeGen numbers the routing state Paths are resolved in (never 0):
	// dropping state that was in use moves it on, and a path resolved under
	// another number is dead.
	routeGen uint32

	pool  pktPool // packet free list (see pool.go)
	stats NetworkStats

	// The clock and drop hook of every queue Connect builds, bound once.
	clock   func() sim.Time
	release func(*Packet)
}

const noRoute = math.MinInt32

// NewNetwork returns an empty network driven by sched.
func NewNetwork(sched *sim.Scheduler) *Network {
	n := &Network{sched: sched, clock: sched.Now, routeGen: 1}
	n.release = n.ReleasePacket
	return n
}

// Scheduler returns the event scheduler driving this network.
func (n *Network) Scheduler() *sim.Scheduler { return n.sched }

// Stats returns the network-wide counters.
func (n *Network) Stats() NetworkStats { return n.stats }

// Nodes returns the number of nodes.
func (n *Network) Nodes() int { return len(n.nodes) }

// Node returns the node with the given id, or nil.
func (n *Network) Node(id NodeID) Node {
	if int(id) < 0 || int(id) >= len(n.nodes) {
		return nil
	}
	return n.nodes[id]
}

// AddHost creates a host. An empty name gets an auto-generated one.
func (n *Network) AddHost(name string) *Host {
	h := &Host{net: n, id: n.nextID, name: name}
	if name == "" {
		h.name = fmt.Sprintf("host%d", h.id)
	}
	n.register(h)
	return h
}

// AddSwitch creates a switch. An empty name gets an auto-generated one.
func (n *Network) AddSwitch(name string) *Switch {
	s := &Switch{net: n, id: n.nextID, name: name}
	if name == "" {
		s.name = fmt.Sprintf("switch%d", s.id)
	}
	n.register(s)
	return s
}

func (n *Network) register(node Node) {
	n.nodes = append(n.nodes, node)
	n.out = append(n.out, nil)
	n.nextID++
	n.dropRoutes()
}

// dropRoutes forgets all forwarding state; the next forward rebuilds what
// it needs for the topology as it then is, in the storage kept here.
func (n *Network) dropRoutes() {
	if len(n.built) > 0 { // only state in use can have been resolved into a Path
		n.routeGen++
	}
	n.ecmp = nil
	n.rows, n.flat, n.comp, n.built = n.rows[:0], n.flat[:0], n.comp[:0], n.built[:0]
}

// Connect wires a full-duplex cable between a and b and returns its two
// pipes (a→b, b→a), allocated together; their queues share the network's
// clock and release hook. Adding nodes or links drops cached routes.
func (n *Network) Connect(a, b Node, cfg LinkConfig) (*Pipe, *Pipe) {
	pair := &[2]Pipe{
		{sched: n.sched, net: n, from: a, to: b, rate: cfg.Rate, delay: cfg.Delay},
		{sched: n.sched, net: n, from: b, to: a, rate: cfg.Rate, delay: cfg.Delay},
	}
	for i := range pair {
		pair[i].queue.init(cfg.Queue, n.clock, n.release)
	}
	ab, ba := &pair[0], &pair[1]
	n.out[a.ID()] = append(n.out[a.ID()], ab)
	n.out[b.ID()] = append(n.out[b.ID()], ba)
	n.dropRoutes()
	return ab, ba
}

// PipesFrom returns the outgoing pipes of a node (shared slice; callers
// must not mutate it).
func (n *Network) PipesFrom(id NodeID) []*Pipe { return n.out[id] }

// forward routes pkt out of node toward pkt.Dst: along the path it was
// sent on while that path lives, else through the forwarding state,
// applying per-flow ECMP when several shortest-path next hops exist. Both
// give the same pipe: a path is the hop-by-hop walk, resolved ahead.
func (n *Network) forward(node NodeID, pkt *Packet) {
	var pipe *Pipe
	if pkt.Hops++; pkt.Hops <= maxHops {
		if pkt.path.gen == n.routeGen && pkt.Hops <= maxPathHops {
			pipe = n.out[node][pkt.path.ports[pkt.Hops-1]]
		} else {
			pipe = n.nextHop(node, pkt.Dst, pkt.Flow)
		}
	}
	if pipe == nil { // hop limit exceeded or no route
		n.stats.RoutingDrops++
		n.ReleasePacket(pkt)
		return
	}
	pipe.Send(pkt)
}

// nextHop returns the pipe flow takes from node toward dst (nil = none),
// computing and caching the destination's column on first use.
func (n *Network) nextHop(node, dst NodeID, flow FlowID) *Pipe {
	n.stats.RouteLookups++
	if uint(dst) >= uint(len(n.built)) {
		// Outside the network, or the state was dropped since the last hop.
		if uint(dst) >= uint(len(n.nodes)) {
			return nil
		}
		n.resetRoutes()
	}
	if !n.built[dst] {
		n.buildRoutes(dst)
	}
	pipes := n.out[node]
	row := n.rows[node]
	if row == nil {
		// At most one cable: it leads to everything this node can reach.
		if len(pipes) == 0 || node == dst || n.comp[node] != n.comp[dst] {
			return nil
		}
		return pipes[0]
	}
	switch h := row[dst]; {
	case h >= 0:
		return pipes[h]
	case h == noRoute:
		return nil
	default:
		hops := n.ecmp[^h]
		return hops[ecmpHash(flow, node)%uint64(len(hops))]
	}
}

// resetRoutes sizes empty forwarding state for the current topology: a row
// per node with several cables (one array holds them all), no column
// built, no component labelled. It reuses the storage dropRoutes kept.
func (n *Network) resetRoutes() {
	total := len(n.nodes)
	multi := 0
	for _, pipes := range n.out {
		if len(pipes) > 1 {
			multi++
		}
	}
	n.flat = resized(n.flat, multi*total)
	n.rows = resized(n.rows, total)
	flat := n.flat
	for u, pipes := range n.out {
		if len(pipes) > 1 {
			n.rows[u], flat = flat[:total:total], flat[total:]
		}
	}
	n.comp = resized(n.comp, total)
	n.built = resized(n.built, total)
}

// resized returns s at length n, zeroed, in its own storage when that
// holds n elements.
func resized[E any](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// buildRoutes runs a BFS from dst over reversed links, then records, in
// every row, the outgoing pipes that decrease the distance to dst. The
// first BFS to enter a component labels it with its root: dst+1.
func (n *Network) buildRoutes(dst NodeID) {
	const unreachable = math.MaxInt32
	n.routeBuilds++
	if len(n.bfsDist) < len(n.nodes) {
		n.bfsDist = make([]int32, len(n.nodes))
	}
	dist := n.bfsDist[:len(n.nodes)]
	for i := range dist {
		dist[i] = unreachable
	}
	dist[dst] = 0
	// Reverse adjacency: node u reaches v when u has a pipe to v; for the
	// BFS from dst we need "who has a pipe INTO the frontier". All cables
	// are full duplex, so out-adjacency doubles as in-adjacency.
	queue := append(n.bfsQueue[:0], dst)
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, pipe := range n.out[v] {
			if u := pipe.to.ID(); dist[u] == unreachable {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	n.bfsQueue = queue
	if n.comp[dst] == 0 {
		for _, u := range queue {
			n.comp[u] = int32(dst) + 1
		}
	}
	for u, row := range n.rows {
		if row == nil {
			continue
		}
		pipes := n.out[u]
		h := int32(noRoute)
		for i, pipe := range pipes {
			if dist[pipe.to.ID()] != dist[u]-1 { // never true from an unreachable u
				continue
			}
			switch {
			case h == noRoute:
				h = int32(i)
			case h >= 0: // a second equal-cost hop: move the node to the side table
				n.ecmp = append(n.ecmp, []*Pipe{pipes[h], pipe})
				h = ^int32(len(n.ecmp) - 1)
			default:
				n.ecmp[^h] = append(n.ecmp[^h], pipe)
			}
		}
		row[dst] = h
	}
	n.built[dst] = true
}

// ecmpHash mixes the flow id with the deciding node so that different
// switches spread the same flow set differently (avoids hash
// polarization). FNV-1a.
func ecmpHash(flow FlowID, node NodeID) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range [...]uint64{uint64(flow), uint64(node)} {
		for i := 0; i < 8; i++ {
			h ^= (b >> (8 * i)) & 0xff
			h *= prime64
		}
	}
	return h
}
