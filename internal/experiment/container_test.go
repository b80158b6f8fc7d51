package experiment

// The event container is not an input. A scheduler serves recurring
// AfterFIFO delays — serialization and propagation on every hop — from
// FIFO lanes and everything else from its timing wheel, and fires by
// (instant, sequence number) whichever holds the event; sim.WheelOnly
// switches the lanes off. Each runner below renders byte-identical output
// both ways, with every packet handed to its hop through the event that
// carries it: through the lanes, or through the wheel's arg-carrying arm.

import (
	"bytes"
	"testing"

	"tcptrim/internal/sim"
)

func TestRunnersIndependentOfEventContainer(t *testing.T) {
	run := func(id string) func() ([]byte, error) {
		return func() ([]byte, error) {
			var buf bytes.Buffer
			err := Run(id, Options{}, &buf)
			return buf.Bytes(), err
		}
	}
	cases := []struct {
		name   string
		render func() ([]byte, error)
	}{
		{"fig4", run("fig4")},
		{"fig6", run("fig6")},
		{"fig8 3 ToRs", func() ([]byte, error) {
			res, err := RunLargeScale([]Protocol{ProtoTRIM}, []int{3}, Options{Reps: 1})
			if err != nil {
				return nil, err
			}
			var buf bytes.Buffer
			err = res.WriteTables(&buf)
			return buf.Bytes(), err
		}},
		{"resilience-smoke", run("resilience-smoke")},
		{"recoverysweep-smoke", run("recoverysweep-smoke")},
		{"fig8million-smoke", func() ([]byte, error) {
			out, err := run("fig8million-smoke")()
			// The table, not the host-measured resource lines after it.
			table, _, _ := bytes.Cut(out, []byte("\n\n"))
			return table, err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			lanes, err := tc.render()
			if err != nil {
				t.Fatal(err)
			}
			var wheel []byte
			sim.WheelOnly(func() { wheel, err = tc.render() })
			if err != nil {
				t.Fatalf("wheel only: %v", err)
			}
			if len(lanes) == 0 || !bytes.Equal(lanes, wheel) {
				t.Errorf("output depends on the event container:\n-- lanes --\n%s\n-- wheel only --\n%s", lanes, wheel)
			}
		})
	}
}
