package conformance

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tcptrim/internal/core"
	"tcptrim/internal/sim"
)

var update = flag.Bool("update", false, "rewrite testdata/divergence.txt")

// TestDivergenceText pins the report of forced divergences — each
// divergence and the hook trace before it — byte for byte, so that how
// the shadow records its hooks can change without changing what it
// prints. The oracle's state is tampered with on the scripted harness (a
// probe exchange cut by its deadline, a dup ACK, an RTO, Finish), and its
// alpha on the first generated scenarios that diverge.
func TestDivergenceText(t *testing.T) {
	var b strings.Builder
	report := func(name string, total int, divs []Divergence) {
		fmt.Fprintf(&b, "%s: %d divergences\n", name, total)
		for i, d := range divs {
			fmt.Fprintf(&b, "%s\n", d)
			if i == 0 || i == len(divs)-1 {
				for _, line := range d.Trace {
					fmt.Fprintf(&b, "  %s\n", line)
				}
			}
		}
	}

	h := newHarness(t, core.Config{})
	for i := 0; i < 4; i++ {
		h.send()
	}
	h.ack(4, 150*time.Microsecond, false)
	h.advance(3 * time.Millisecond)
	h.send()
	h.send()
	h.sh.oracle.ProbeRounds++ // every hook from here on diverges
	h.ack(1, 150*time.Microsecond, false)
	h.advance(5 * time.Millisecond)
	h.sh.OnDupAck()
	h.retransmit()
	h.ack(2, 0, true)
	h.timeout()
	h.sh.lastGrant = 3 // and so does Finish
	divs := h.sh.Finish()
	report("harness", h.sh.Total(), divs)

	for seed, found := int64(1), 0; seed <= 40 && found < 2; seed++ {
		sc := GenScenario(seed)
		sh := NewShadow(sc.Cfg)
		sh.oracle.cfg.Alpha += 0.01
		res, err := runScenarioWith(sc, sim.NewScheduler(), sh)
		if err != nil {
			t.Fatal(err)
		}
		if res.Total > 0 {
			report(fmt.Sprintf("seed %d", seed), res.Total, res.Divergences)
			found++
		}
	}

	file := filepath.Join("testdata", "divergence.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(file, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatalf("no pinned report (go test -run TestDivergenceText ./internal/conformance/ -args -update): %v", err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("the divergence report differs from %s:\n%s", file, got)
	}
}
