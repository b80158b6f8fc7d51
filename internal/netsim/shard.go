package netsim

// Topology partitioning for the parallel simulation core (see
// internal/sim/shard.go for the PDES engine itself). A network is cut at
// pipe boundaries: every node is assigned to exactly one shard, a pipe
// whose endpoints land on different shards becomes a *cut pipe*, and a
// cut pipe's propagation delay is the physical lookahead that lets the
// shards run conservatively in parallel — a packet put on the wire at t
// cannot affect the far side before t+delay.
//
// The partitioning is a pure relabeling of the sequential simulation:
// every event keeps its instant, and the engine's merge protocol replays
// the exact global dispatch order, so results are byte-identical at any
// shard count. What changes is only which wheel an event lives on and
// which pool a packet is recycled through.

import (
	"fmt"
	"time"

	"tcptrim/internal/sim"
)

// Shard partitions the network across g's shards. shardOf must return a
// stable shard index in [0, g.NumShards()) for every node. Requirements:
//
//   - the topology is complete: Connect panics after Shard;
//   - no traffic has run yet (packet pools and routes are rebuilt);
//   - every cut pipe has a positive propagation delay — a zero-delay cut
//     would mean zero lookahead and no admissible parallel window.
//
// Shard computes the group's lookahead as the minimum cut-pipe delay,
// prewarms and freezes the route cache (parallel segments may only read
// it), and rebinds every pipe, queue and host to its shard's scheduler
// and packet pool. The network's own scheduler becomes shard 0's; drive
// the run through the group (RunUntil/SyncAt), not through it.
func (n *Network) Shard(g *sim.ShardGroup, shardOf func(Node) int) error {
	if n.group != nil {
		return fmt.Errorf("netsim: network already sharded")
	}
	if g == nil {
		return fmt.Errorf("netsim: nil shard group")
	}
	k := g.NumShards()

	// Resolve and validate the node → shard map first; nothing is mutated
	// until the whole assignment is known good.
	assign := make([]int32, len(n.nodes))
	for id, node := range n.nodes {
		s := shardOf(node)
		if s < 0 || s >= k {
			return fmt.Errorf("netsim: node %s assigned to shard %d, want [0,%d)", node.Name(), s, k)
		}
		assign[id] = int32(s)
	}
	var minCut time.Duration
	for _, pipes := range n.out {
		for _, p := range pipes {
			src, dst := assign[p.from.ID()], assign[p.to.ID()]
			if src == dst {
				continue
			}
			if p.delay <= 0 {
				return fmt.Errorf("netsim: cut pipe %s->%s has zero delay; zero lookahead admits no parallel window",
					p.from.Name(), p.to.Name())
			}
			if minCut == 0 || p.delay < minCut {
				minCut = p.delay
			}
		}
	}

	n.group = g
	n.nodeShard = assign
	n.sched = g.Shard(0)
	if minCut > 0 {
		g.SetLookahead(sim.Time(minCut))
	}

	// Grow the pool and stats arrays to one slot per shard, keeping any
	// pool-0 state (tests sometimes preallocate before sharding).
	pools := make([]pktPool, k)
	copy(pools, n.pools)
	n.pools = pools
	shStats := make([]NetworkStats, k)
	copy(shStats, n.shStats)
	n.shStats = shStats

	for _, node := range n.nodes {
		if h, ok := node.(*Host); ok {
			h.shard = assign[h.id]
			h.sched = g.Shard(int(h.shard))
		}
	}
	for _, pipes := range n.out {
		for _, p := range pipes {
			p.shard = assign[p.from.ID()]
			p.dstShard = assign[p.to.ID()]
			p.sched = g.Shard(int(p.shard))
			if p.dstShard != p.shard {
				p.dstSched = g.Shard(int(p.dstShard))
				p.xferFn = p.onXfer
			}
			// The queue's clock and drop handler were bound to the
			// pre-shard scheduler and the default pool; rebind both to the
			// pipe's source shard.
			p.queue.SetClock(p.sched.Now)
			p.queue.SetDropHandler(p.release)
		}
	}

	// Prewarm the route cache for every deliverable destination, then
	// freeze it: parallel segments only ever read the rows, and a frozen
	// miss is a routing drop instead of a racing cache fill.
	if n.built == nil {
		n.resetRoutes()
	}
	for _, node := range n.nodes {
		if _, ok := node.(*Host); !ok {
			continue
		}
		if dst := node.ID(); !n.built[dst] {
			n.buildRoutes(dst)
		}
	}
	n.routesFrozen = true
	return nil
}
