package experiment

import (
	"bytes"
	"strings"
	"testing"
)

// TestLargeScaleHybridInvariant: fig8's 3-ToR slice renders the same
// tables at hybrid fidelity as at packet fidelity — every completion
// time and timeout count survives the demote/materialize cycles. The
// whole fig8 is TestRunnerGoldens' hybrid arm under -golden.all.
func TestLargeScaleHybridInvariant(t *testing.T) {
	packet, err := fig8Slice(Options{Seed: 7, Fidelity: "packet"})
	if err != nil {
		t.Fatalf("fidelity=packet: %v", err)
	}
	hybrid, err := fig8Slice(Options{Seed: 7, Fidelity: "hybrid"})
	if err != nil {
		t.Fatalf("fidelity=hybrid: %v", err)
	}
	if !bytes.Equal(packet, hybrid) {
		t.Errorf("diverges at fidelity=hybrid:\n-- packet --\n%s\n-- hybrid --\n%s", packet, hybrid)
	}
}

// TestMillionSmoke runs the CI-sized fig8million configuration and
// asserts the scale layer held: everything completed, the materialized
// population stayed orders of magnitude below the fleet, and the heap
// footprint per connection stayed where it was measured.
func TestMillionSmoke(t *testing.T) {
	res, err := RunMillion([]Protocol{ProtoTRIM}, MillionSmoke, Options{})
	if err != nil {
		t.Fatal(err)
	}
	row := res.Rows[0]
	if row.Completed != row.Scheduled || row.Scheduled != MillionSmoke.Flows() {
		t.Fatalf("completed %d of %d scheduled (want %d)",
			row.Completed, row.Scheduled, MillionSmoke.Flows())
	}
	if row.PeakLive == 0 || row.PeakLive > res.Conns/10 {
		t.Errorf("peak live %d of %d conns — hybrid layer not folding", row.PeakLive, res.Conns)
	}
	if row.ArenaCap != row.PeakLive {
		t.Errorf("arena slots %d != peak live %d", row.ArenaCap, row.PeakLive)
	}
	// Heap tripwire. Measured on this configuration (go1.24, amd64): 1.58 MB
	// after the run, 158 B/conn alone (229 when the flow store's record
	// was 128 B and the fleet kept a live-connection slot per flow, 260
	// when the collector also kept a 40-byte record of every completed
	// response, 363 when the flow store was thirteen parallel arrays and
	// every flow had two policy interface slots). Per connection that is
	// the flow store's 64 B hot record (a flow that met loss or ECN adds a
	// 56 B rare one), a timeline entry (24), the completion time's 8 B
	// sample in the FCT distribution (below the sample cap; above it the
	// sketch is a fixed 60 KB) and 16 B of per-flow tables (the two
	// stacks' dispatch entries, which also resolve a live flow); the rest
	// is topology and pools. The policy objects are not in it: they sit in
	// slots only the flows between their first release and their last
	// demotion hold, and a finished flow's core.Trim (240) and classic
	// (16) serve the next flow, so the run makes as many as were ever live
	// at once. The ceiling is the measurement plus a third (210 B/conn):
	// the 229 B/conn of the 128-byte record is 1.09× over it, the 363
	// B/conn of the thirteen arrays 1.7×, the 602 B/conn of one policy
	// pair per released flow 2.9×, the 1 441 B/conn of every demoted flow
	// pinning its last tcp.Conn 6.9×; TestStreamingCollectorMatchesRecords
	// in httpapp is the tripwire of the per-response records.
	const measuredPerConn = 158
	budget := uint64(measuredPerConn+measuredPerConn/3) * uint64(res.Conns)
	t.Logf("heap %d B after the run, %.0f B/conn", row.HeapBytes, row.BytesPerConn)
	if row.HeapBytes > budget {
		t.Errorf("heap %d B exceeds budget %d B (%.0f B/conn, measured %d when the budget was set)",
			row.HeapBytes, budget, row.BytesPerConn, measuredPerConn)
	}
}

// TestMillionPacketRefused pins the guard: the full configuration at
// packet fidelity must refuse to run rather than materialize a million
// connections.
func TestMillionPacketRefused(t *testing.T) {
	_, err := RunMillion([]Protocol{ProtoTRIM}, MillionFull, Options{Fidelity: "packet"})
	if err == nil || !strings.Contains(err.Error(), "packet fidelity") {
		t.Errorf("err = %v", err)
	}
}
