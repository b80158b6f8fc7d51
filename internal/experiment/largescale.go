package experiment

import (
	"fmt"
	"io"
	"time"

	"math/rand"

	"tcptrim/internal/httpapp"
	"tcptrim/internal/hybrid"
	"tcptrim/internal/metrics"
	"tcptrim/internal/sim"
	"tcptrim/internal/tcp"
	"tcptrim/internal/topology"
	"tcptrim/internal/workload"
)

// Fig. 8 scenario: the two-level tree with 5–25 ToR switches × 42
// servers (210–1050 servers). Two servers per ToR run long flows for the
// whole test; the rest each send short trains inside a 0.5 s window, half
// with uniformly distributed start times and half exponentially
// distributed (Poisson-like arrivals). PT sizes follow the Fig. 2(a)
// mixture capped below the LPT regime. The TCP minimum RTO is 20 ms
// ("the throughput collapse of LPTs is alleviated by setting a smaller
// TCP timeout value (20 ms in our tests)").
const (
	lsWindow  = 500 * time.Millisecond
	lsStart   = 100 * time.Millisecond
	lsHorizon = 3 * time.Second
	lsRTO     = 20 * time.Millisecond
	lsLPTsPer = 2
	// Queue-free RTT server↔front-end: data (12+20)+(1.2+10)+(1.2+10) µs
	// + ACK ≈ 95 µs.
	lsBaseRTT = 95 * time.Microsecond
)

// LargeScaleRow is one (protocol, scale) cell of Fig. 8(b).
type LargeScaleRow struct {
	Protocol Protocol
	ToRs     int
	Servers  int
	// ACT is the mean SPT completion time across repetitions.
	ACT time.Duration
	// P99 is the 99th percentile of SPT completion times.
	P99 time.Duration
	// Timeouts counts SPT-connection RTO events.
	Timeouts int
	// Completed / Scheduled SPT counts across reps.
	Completed int
	Scheduled int
}

// LargeScaleResult holds Fig. 8(b): ACT of SPTs vs network scale.
type LargeScaleResult struct {
	Rows []LargeScaleRow
}

// Row returns the cell for (proto, tors), or nil.
func (r *LargeScaleResult) Row(proto Protocol, tors int) *LargeScaleRow {
	for i := range r.Rows {
		if r.Rows[i].Protocol == proto && r.Rows[i].ToRs == tors {
			return &r.Rows[i]
		}
	}
	return nil
}

// RunLargeScale sweeps the tree size for each protocol, repeating each
// cell opts.Reps times (default 3; the paper used 100).
func RunLargeScale(protos []Protocol, torCounts []int, opts Options) (*LargeScaleResult, error) {
	fid, err := opts.fidelity()
	if err != nil {
		return nil, err
	}
	var cells []largeScaleCell
	for _, p := range protos {
		for _, tors := range torCounts {
			cells = append(cells, largeScaleCell{p, tors, opts.reps(3), string(fid), opts.seed()})
		}
	}
	rows, err := sweep(opts, "largescale", cells, func(c largeScaleCell, opts Options) (*LargeScaleRow, error) {
		return runLargeScaleCell(c.Protocol, c.ToRs, c.Reps, c.Seed, opts, hybrid.Fidelity(c.Fidelity))
	})
	if err != nil {
		return nil, err
	}
	return &LargeScaleResult{Rows: rows}, nil
}

// largeScaleCell is one (protocol, scale) cell. Reps and fidelity shape
// its row, so both are in the key; fidelity by its parsed, normalized
// name, so an explicit "packet" hits the same cells as the default.
type largeScaleCell struct {
	Protocol Protocol `json:"protocol"`
	ToRs     int      `json:"tors"`
	Reps     int      `json:"reps"`
	Fidelity string   `json:"fidelity"`
	Seed     int64    `json:"seed"`
}

func (c largeScaleCell) String() string { return fmt.Sprintf("%s/%d-tors", c.Protocol, c.ToRs) }

func runLargeScaleCell(proto Protocol, tors, reps int, seed int64, opts Options, fid hybrid.Fidelity) (*LargeScaleRow, error) {
	var acts metrics.Distribution
	row := &LargeScaleRow{Protocol: proto, ToRs: tors, Servers: tors * 42}
	for rep := 0; rep < reps; rep++ {
		if err := runLargeScaleOnce(proto, tors, seed+int64(rep)*7919+int64(tors), opts, fid, &acts, row); err != nil {
			return nil, err
		}
	}
	row.ACT = secondsToDuration(acts.Mean())
	row.P99 = secondsToDuration(acts.Percentile(99))
	return row, nil
}

func runLargeScaleOnce(proto Protocol, tors int, seed int64, opts Options, fid hybrid.Fidelity, acts *metrics.Distribution, row *LargeScaleRow) error {
	sc, err := scenario{
		tree:  &topology.TwoLevelTreeConfig{ToRs: tors},
		proto: proto, baseRTT: lsBaseRTT, tcp: tcp.Config{MinRTO: lsRTO},
		seed: seed, fidelity: fid,
	}.build(opts)
	if err != nil {
		return err
	}
	rng := sc.rng
	// Fig. 2(a) sizes, but the measured trains are SPTs: cap at the LPT
	// boundary so a measured train is never itself a long flow.
	sizes := cappedSizes{inner: workload.PTSizes{}, max: workload.PTLargeBytes}

	perToR := len(sc.tree.Servers[0])
	var sptFlows []int
	spt := &httpapp.Collector{}
	spt.StreamTo(acts)
	idx := 0
	for t := 0; t < tors; t++ {
		for s := 0; s < perToR; s++ {
			i := idx
			idx++
			if s < lsLPTsPer {
				if err := sc.background(i, i+1, lsStart); err != nil {
					return err
				}
				continue
			}
			// One measured SPT per server, starting inside the window:
			// even servers draw uniform start offsets, odd exponential.
			var offset time.Duration
			if s%2 == 0 {
				offset = time.Duration(rng.Int63n(int64(lsWindow)))
			} else {
				offset = time.Duration(rng.ExpFloat64() * float64(lsWindow) / 3)
				if offset > lsWindow {
					offset = lsWindow
				}
			}
			if err := sc.fleet.ScheduleResponseAs(i, sim.At(lsStart+offset), sizes.Sample(rng), "spt", spt); err != nil {
				return err
			}
			sptFlows = append(sptFlows, i)
		}
	}
	// Stop once every SPT completed.
	if err := sc.run(lsHorizon, lsStart+lsWindow, func() bool { return spt.Pending() == 0 }); err != nil {
		return err
	}

	row.Completed += spt.Count()
	row.Scheduled += len(sptFlows)
	for _, i := range sptFlows {
		row.Timeouts += sc.fleet.Stats(i).Timeouts
	}
	return nil
}

// cappedSizes caps a size distribution at max bytes.
type cappedSizes struct {
	inner workload.SizeDist
	max   int
}

// Sample implements workload.SizeDist.
func (c cappedSizes) Sample(rng *rand.Rand) int {
	v := c.inner.Sample(rng)
	if v > c.max {
		return c.max
	}
	return v
}

// WriteTables renders Fig. 8(b).
func (r *LargeScaleResult) WriteTables(w io.Writer) error {
	t := &Table{
		Title:  "Fig. 8(b): ACT of SPTs vs network scale",
		Header: []string{"protocol", "ToRs", "servers", "ACT", "P99", "timeouts", "completed"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			string(row.Protocol),
			fmt.Sprintf("%d", row.ToRs),
			fmt.Sprintf("%d", row.Servers),
			row.ACT.Round(10 * time.Microsecond).String(),
			row.P99.Round(10 * time.Microsecond).String(),
			fmt.Sprintf("%d", row.Timeouts),
			fmt.Sprintf("%d/%d", row.Completed, row.Scheduled),
		})
	}
	return t.Write(w)
}

var _ = register("fig8",
	"ACT of short trains vs network scale on the two-level tree, TCP vs TCP-TRIM (Fig. 8b)",
	[]string{"reps", "fidelity"},
	tables(func(opts Options) (*LargeScaleResult, error) {
		return RunLargeScale([]Protocol{ProtoTCP, ProtoTRIM}, []int{5, 10, 15, 20, 25}, opts)
	}))
