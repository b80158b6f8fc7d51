package experiment

// The event container is not an input. A scheduler serves recurring
// AfterFIFO delays — serialization and propagation on every hop — from
// FIFO lanes and everything else from its timing wheel, and fires by
// (instant, sequence number) whichever holds the event; sim.WheelOnly
// switches the lanes off. Each runner below renders byte-identical output
// both ways, with every packet handed to its hop through the event that
// carries it: through the lanes, or through the wheel's arg-carrying arm.
// TestRunnerGoldens' wheel arm covers every runner whole; the fig8 and
// fig8million slices here are the ones it reaches only under -golden.all.

import (
	"bytes"
	"testing"

	"tcptrim/internal/sim"
)

func TestRunnersIndependentOfEventContainer(t *testing.T) {
	run := func(id string) func(Options) ([]byte, error) {
		return func(opts Options) ([]byte, error) {
			var buf bytes.Buffer
			err := Run(id, opts, &buf)
			return buf.Bytes(), err
		}
	}
	cases := []struct {
		name   string
		render func(Options) ([]byte, error)
	}{
		{"fig4", run("fig4")},
		{"fig6", run("fig6")},
		{"fig8 3 ToRs", fig8Slice},
		{"resilience-smoke", run("resilience-smoke")},
		{"recoverysweep-smoke", run("recoverysweep-smoke")},
		{"fig8million-smoke", millionSmokeTable},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			lanes, err := tc.render(Options{})
			if err != nil {
				t.Fatal(err)
			}
			var wheel []byte
			sim.WheelOnly(func() { wheel, err = tc.render(Options{}) })
			if err != nil {
				t.Fatalf("wheel only: %v", err)
			}
			if len(lanes) == 0 || !bytes.Equal(lanes, wheel) {
				t.Errorf("output depends on the event container:\n-- lanes --\n%s\n-- wheel only --\n%s", lanes, wheel)
			}
		})
	}
}
