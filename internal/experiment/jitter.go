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

	"tcptrim/internal/core"
	"tcptrim/internal/httpapp"
	"tcptrim/internal/metrics"
	"tcptrim/internal/netsim"
	"tcptrim/internal/sim"
	"tcptrim/internal/tcp"
	"tcptrim/internal/topology"
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
	out := &JitterResult{}
	for _, j := range jitters {
		row, err := runJitterCell(j, opts.seed(), opts)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, *row)
	}
	return out, nil
}

func runJitterCell(jitter time.Duration, seed int64, opts Options) (*JitterRow, error) {
	env := newSimEnv(opts)
	sched := env.sched
	star := topology.NewStar(sched, ksFlows, topology.DefaultStarLink(100))
	if jitter > 0 {
		star.Bottleneck.InjectJitter(jitter, sim.NewRand(seed+int64(jitter)))
	}
	fleet, err := httpapp.NewFleet(star.Net, httpapp.FleetConfig{
		Senders:  star.Senders,
		FrontEnd: star.FrontEnd,
		NewCC: func() tcp.CongestionControl {
			// K sized for the jitter-free topology: the sweep measures
			// what unmodeled noise does to that calibration.
			return core.New(core.Config{BaseRTT: ksBaseRTT})
		},
		Base: tcp.Config{
			MinRTO:   10 * time.Millisecond,
			LinkRate: netsim.Gbps,
		},
	})
	if err != nil {
		return nil, err
	}
	for _, srv := range fleet.Servers {
		if err := srv.StartBackgroundFlow(sim.At(propFlowStart), concBackground); err != nil {
			return nil, err
		}
	}
	queue := star.Bottleneck.Queue()
	series := metrics.Sample(sched, sim.At(propFlowStart), sim.At(propFlowStop),
		propSampleStep, func() float64 { return float64(queue.Len()) })
	if err := env.runUntil(sim.At(propFlowStop)); err != nil {
		return nil, err
	}

	window := (propFlowStop - propFlowStart).Seconds()
	goodput := float64(fleet.TotalDelivered()) * 8 / window
	ceiling := float64(netsim.Gbps) * netsim.MSS / (netsim.MSS + netsim.HeaderSize)
	return &JitterRow{
		Jitter:      jitter,
		Utilization: goodput / ceiling,
		AvgQueue:    series.Mean(),
		Drops:       queue.Stats().Dropped,
		Timeouts:    fleet.TotalTimeouts(),
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
	func(opts Options, w io.Writer) error {
		res, err := RunJitter([]time.Duration{
			0,
			20 * time.Microsecond,
			50 * time.Microsecond,
			100 * time.Microsecond,
			300 * time.Microsecond,
		}, opts)
		if err != nil {
			return err
		}
		return res.WriteTables(w)
	})
