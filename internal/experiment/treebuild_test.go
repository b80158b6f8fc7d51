package experiment

import (
	"testing"

	"tcptrim/internal/tcp"
	"tcptrim/internal/topology"
)

// TestTreeBuildAllocs pins what building the Fig. 8 tree costs per server
// at packet fidelity, with TCP-TRIM as the large-scale cell builds it: the
// host, its cable, its stack, its connection with the connection's window
// policy, its server, and the amortized growth of the shared tables. A
// connection is one object (its hot line, default recovery and timer
// callbacks live in it), a drop-tail queue lives in its cable, and node
// names and server labels are cut from one string per build.
func TestTreeBuildAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own account")
	}
	const tors = 5
	build := func() {
		_, err := scenario{
			tree:  &topology.TwoLevelTreeConfig{ToRs: tors},
			proto: ProtoTRIM, baseRTT: lsBaseRTT, tcp: tcp.Config{MinRTO: lsRTO},
			seed: 1,
		}.build(Options{})
		if err != nil {
			t.Fatal(err)
		}
	}
	servers := float64(tors * 42)
	perServer := testing.AllocsPerRun(5, build) / servers
	t.Logf("%.2f allocations per server", perServer)
	// 9.64 when pinned; each object a connection, cable or label used to
	// cost on its own adds at least one per server.
	if perServer > 10 {
		t.Errorf("building the %d-ToR tree costs %.2f allocations per server, want at most 10", tors, perServer)
	}
}
