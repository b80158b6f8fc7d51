package experiment

// ext-jitter: TCP-TRIM's delay signal under RTT noise. TRIM reads
// congestion from RTT exceeding K; random per-packet delay jitter (NIC
// interrupt coalescing, scheduling noise — the reason the paper insists
// on microsecond-resolution timers) inflates samples and can trigger
// spurious back-offs. The sweep injects up to hundreds of microseconds of
// uniform jitter on the bottleneck and reports what survives of TRIM's
// utilization and queue control.

import (
	"fmt"
	"io"
	"time"

	"tcptrim/internal/tcp"
)

// JitterRow is one jitter setting's outcome.
type JitterRow struct {
	Jitter      time.Duration
	Utilization float64
	AvgQueue    float64
	Drops       int
	Timeouts    int
}

// JitterResult holds the ext-jitter sweep.
type JitterResult struct {
	Rows []JitterRow
}

// RunJitter sweeps bottleneck delay jitter under 5 TCP-TRIM long flows.
func RunJitter(jitters []time.Duration, opts Options) (*JitterResult, error) {
	rows, err := sweep(opts, "ext-jitter", seededCells(opts, jitters), func(c seededCell[time.Duration], opts Options) (*JitterRow, error) {
		return runJitterCell(c.Value, c.Seed, opts)
	})
	if err != nil {
		return nil, err
	}
	return &JitterResult{Rows: rows}, nil
}

func runJitterCell(jitter time.Duration, seed int64, opts Options) (*JitterRow, error) {
	// K sized for the jitter-free topology: the sweep measures what
	// unmodeled noise does to that calibration.
	lf, err := newLongFlows(opts, ksFlows, 100, scenario{proto: ProtoTRIM, baseRTT: ksBaseRTT,
		tcp: tcp.Config{MinRTO: 10 * time.Millisecond}})
	if err != nil {
		return nil, err
	}
	if jitter > 0 {
		lf.star.Bottleneck.InjectJitter(jitter, lf.rand(seed+int64(jitter)))
	}
	goodput, err := lf.run()
	if err != nil {
		return nil, err
	}
	return &JitterRow{
		Jitter:      jitter,
		Utilization: utilization(goodput),
		AvgQueue:    lf.series.Mean(),
		Drops:       lf.queue.Stats().Dropped,
		Timeouts:    lf.fleet.TotalTimeouts(),
	}, nil
}

// WriteTables renders ext-jitter.
func (r *JitterResult) WriteTables(w io.Writer) error {
	t := &Table{
		Title:  "Extension: TRIM under RTT jitter (5 long flows, K sized for zero jitter)",
		Header: []string{"jitter (max)", "utilization", "avg queue", "drops", "timeouts"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Jitter.String(),
			fmt.Sprintf("%.3f", row.Utilization),
			fmt.Sprintf("%.1f", row.AvgQueue),
			fmt.Sprintf("%d", row.Drops),
			fmt.Sprintf("%d", row.Timeouts),
		})
	}
	return t.Write(w)
}

var _ = register("ext-jitter",
	"Extension: TRIM's delay signal under per-packet RTT jitter",
	nil,
	tables(func(opts Options) (*JitterResult, error) {
		return RunJitter([]time.Duration{
			0,
			20 * time.Microsecond,
			50 * time.Microsecond,
			100 * time.Microsecond,
			300 * time.Microsecond,
		}, opts)
	}))
