package experiment

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

// Eq. 22 validation: five TCP-TRIM long flows on the star, sweeping K
// around the guideline value K*. The analysis predicts: K ≥ K* keeps the
// bottleneck fully utilized, K below K* underutilizes, and K above K*
// buys nothing but standing queue.
const (
	// Queue-free RTT of the star: ≈ 225 µs (see convergence.go).
	ksBaseRTT = 225 * time.Microsecond
	ksFlows   = 5
)

// KSweepRow is one K setting's outcome.
type KSweepRow struct {
	// Factor is K/K*; K is the resulting threshold.
	Factor float64
	K      time.Duration
	// Utilization is payload goodput over the payload-capacity ceiling.
	Utilization float64
	AvgQueue    float64
	MaxQueue    int
	Drops       int
}

// KSweepResult holds the Eq. 22 sweep.
type KSweepResult struct {
	KStar time.Duration
	Rows  []KSweepRow
}

// RunKSweep sweeps K across the given multiples of the Eq. 22 guideline.
func RunKSweep(factors []float64, opts Options) (*KSweepResult, error) {
	kStar := core.GuidelineKForLink(netsim.Gbps, netsim.MSS+netsim.HeaderSize, ksBaseRTT)
	out := &KSweepResult{KStar: kStar, Rows: make([]KSweepRow, len(factors))}
	rows, err := RunTrials(len(factors), func(i int) (*KSweepRow, error) {
		row, err := runKSweepCell(time.Duration(factors[i]*float64(kStar)), opts)
		if err != nil {
			return nil, err
		}
		row.Factor = factors[i]
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	for i, row := range rows {
		out.Rows[i] = *row
	}
	return out, nil
}

func runKSweepCell(k time.Duration, opts Options) (*KSweepRow, error) {
	env := newSimEnv(opts)
	sched := env.sched
	star := topology.NewStar(sched, ksFlows, topology.DefaultStarLink(100))
	fleet, err := httpapp.NewFleet(star.Net, httpapp.FleetConfig{
		Senders:  star.Senders,
		FrontEnd: star.FrontEnd,
		NewCC: func() tcp.CongestionControl {
			return core.New(core.Config{K: k, BaseRTT: ksBaseRTT})
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
	var startBytes int64
	if _, err := sched.At(sim.At(propFlowStart), func() { startBytes = fleet.TotalDelivered() }); err != nil {
		return nil, err
	}
	if err := env.runUntil(sim.At(propFlowStop)); err != nil {
		return nil, err
	}

	window := (propFlowStop - propFlowStart).Seconds()
	goodput := float64(fleet.TotalDelivered()-startBytes) * 8 / window
	ceiling := float64(netsim.Gbps) * netsim.MSS / (netsim.MSS + netsim.HeaderSize)
	return &KSweepRow{
		K:           k,
		Utilization: goodput / ceiling,
		AvgQueue:    series.Mean(),
		MaxQueue:    int(series.Max()),
		Drops:       queue.Stats().Dropped,
	}, nil
}

// WriteTables renders the sweep.
func (r *KSweepResult) WriteTables(w io.Writer) error {
	t := &Table{
		Title:  fmt.Sprintf("Eq. 22 sweep: K* = %v (1 Gbps star, 5 TRIM flows)", r.KStar),
		Header: []string{"K/K*", "K", "utilization", "avg queue", "max queue", "drops"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.2f", row.Factor),
			row.K.Round(time.Microsecond).String(),
			fmt.Sprintf("%.3f", row.Utilization),
			fmt.Sprintf("%.1f", row.AvgQueue),
			fmt.Sprintf("%d", row.MaxQueue),
			fmt.Sprintf("%d", row.Drops),
		})
	}
	return t.Write(w)
}

var _ = register("eq22",
	"K guideline sweep around Eq. 22's K*: utilization, queue, drops vs K (Sec. III-D)",
	nil,
	func(opts Options, w io.Writer) error {
		res, err := RunKSweep([]float64{0.25, 0.5, 0.75, 1, 1.5, 2, 4}, opts)
		if err != nil {
			return err
		}
		return res.WriteTables(w)
	})
