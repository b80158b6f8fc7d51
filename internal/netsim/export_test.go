package netsim

// Test-only views of the routing state for the external routes tests
// (package netsim_test, which may import internal/topology).

// ReferenceRoutes is the routing-table builder the flat next-hop table
// replaced, kept verbatim as the oracle: a BFS from dst over reversed
// links, then for every node all outgoing pipes that decrease the
// distance to dst, in out[node] order.
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

// NextHops returns the equal-cost next-hop pipes the live table holds for
// (node, dst), building dst's tree on first use like forward does.
func (n *Network) NextHops(node, dst NodeID) []*Pipe {
	if n.NextHop(node, dst, 0) == nil {
		return nil
	}
	h := n.routes[dst].hop[node]
	if h >= 0 {
		return []*Pipe{n.out[node][h]}
	}
	return n.routes[dst].ecmp[^h]
}

// NextHop is the forwarding decision for one flow.
func (n *Network) NextHop(node, dst NodeID, flow FlowID) *Pipe { return n.nextHop(node, dst, flow) }

// ECMPHash is the per-flow, per-node hash forward picks an ECMP member by.
func ECMPHash(flow FlowID, node NodeID) uint64 { return ecmpHash(flow, node) }
