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
	// Heap tripwire. Measured on this configuration (go1.24, amd64): 2.29 MB
	// after the run, 229 B/conn alone (260 when the collector kept a 40-byte
	// record of every completed response, 363 when the flow store was
	// thirteen parallel arrays and every flow had two policy interface
	// slots). Per connection that is the flow store's 128 B record, a
	// timeline entry (24), the completion time's 8 B sample in the FCT
	// distribution (below the sample cap; above it the sketch is a fixed
	// 60 KB) and 24 B of per-flow tables (the fleet's live-connection
	// slot, the two stacks' dispatch entries); the rest is topology and
	// pools. The policy objects are not in it: they sit in slots only the
	// flows between their first release and their last demotion hold, and
	// a finished flow's core.Trim (240) and classic (16) serve the next
	// flow, so the run makes as many as were ever live at once. The ceiling
	// is the measurement plus a third (305 B/conn): the 363 B/conn of the
	// thirteen arrays is 1.2× over it, the 602 B/conn of one policy pair
	// per released flow 2.0×, the 1 441 B/conn of every demoted flow
	// pinning its last tcp.Conn 4.7×. The records alone (260) would fit
	// under it; TestStreamingCollectorMatchesRecords in httpapp is their
	// tripwire.
	const measuredPerConn = 229
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
