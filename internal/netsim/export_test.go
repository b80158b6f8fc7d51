package netsim

// Test-only views of the routing state for the external routes tests
// (package netsim_test, which may import internal/topology).

// ReferenceRoutes is the first routing-table builder, kept verbatim as the
// oracle for what replaced it: a BFS from dst over reversed links, then
// for every node all outgoing pipes that decrease the distance to dst, in
// out[node] order.
func (n *Network) ReferenceRoutes(dst NodeID) [][]*Pipe {
	const unreachable = int(^uint(0) >> 1)
	dist := make([]int, len(n.nodes))
	for i := range dist {
		dist[i] = unreachable
	}
	dist[dst] = 0
	frontier := []NodeID{dst}
	for len(frontier) > 0 {
		var next []NodeID
		for _, v := range frontier {
			for _, pipe := range n.out[v] {
				u := pipe.to.ID()
				if dist[u] == unreachable {
					dist[u] = dist[v] + 1
					next = append(next, u)
				}
			}
		}
		frontier = next
	}
	table := make([][]*Pipe, len(n.nodes))
	for id := range n.nodes {
		u := NodeID(id)
		if u == dst || dist[u] == unreachable {
			continue
		}
		for _, pipe := range n.out[u] {
			if dist[pipe.to.ID()] == dist[u]-1 {
				table[u] = append(table[u], pipe)
			}
		}
	}
	return table
}

// NextHops returns the equal-cost next-hop pipes the live forwarding state
// holds for (node, dst), building dst's column on first use like forward
// does: a row entry for a node with several cables, the one cable otherwise.
func (n *Network) NextHops(node, dst NodeID) []*Pipe {
	pipe := n.NextHop(node, dst, 0)
	if pipe == nil {
		return nil
	}
	if row := n.rows[node]; row != nil && row[dst] < 0 {
		return n.ecmp[^row[dst]]
	}
	return []*Pipe{pipe}
}

// RouteBuilds is the number of BFS runs routing has cost so far.
func (n *Network) RouteBuilds() int { return n.routeBuilds }

// RouteRows is the number of nodes that hold a forwarding row.
func (n *Network) RouteRows() int {
	rows := 0
	for _, row := range n.rows {
		if row != nil {
			rows++
		}
	}
	return rows
}

// RoutingBytes totals the memory the forwarding state holds: rows, their
// index, the ECMP side table, component labels, built flags, BFS scratch.
func (n *Network) RoutingBytes() int {
	const slice, word = 24, 8
	bytes := cap(n.rows)*slice + cap(n.ecmp)*slice + cap(n.comp)*4 + cap(n.built) +
		cap(n.bfsDist)*4 + cap(n.bfsQueue)*word
	for _, row := range n.rows {
		bytes += cap(row) * 4
	}
	for _, hops := range n.ecmp {
		bytes += cap(hops) * word
	}
	return bytes
}

// NextHop is the forwarding decision for one flow.
func (n *Network) NextHop(node, dst NodeID, flow FlowID) *Pipe { return n.nextHop(node, dst, flow) }

// ECMPHash is the per-flow, per-node hash forward picks an ECMP member by.
func ECMPHash(flow FlowID, node NodeID) uint64 { return ecmpHash(flow, node) }

// Resolve is what Path.Send does with a Path that holds nothing: the path
// flow's packets from src to dst take.
func (n *Network) Resolve(src, dst NodeID, flow FlowID) Path { return n.resolve(src, dst, flow) }

// PathPipes returns the pipes p leads through from src to dst, nil when p
// holds no path of n's current routing state.
func (n *Network) PathPipes(p Path, src, dst NodeID) []*Pipe {
	if p.gen != n.routeGen {
		return nil
	}
	var pipes []*Pipe
	for node := src; node != dst && len(pipes) < maxPathHops; {
		pipe := n.out[node][p.ports[len(pipes)]]
		pipes = append(pipes, pipe)
		node = pipe.to.ID()
	}
	return pipes
}

// Holds reports whether p holds a path of n's current routing state.
func (n *Network) Holds(p Path) bool { return p.gen == n.routeGen }
