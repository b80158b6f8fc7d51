package experiment

import (
	"fmt"
	"io"
	"time"

	"tcptrim/internal/core"
	"tcptrim/internal/netsim"
	"tcptrim/internal/tcp"
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
	rows, err := sweep(opts, "eq22", seededCells(opts, factors), func(c seededCell[float64], opts Options) (*KSweepRow, error) {
		row, err := runKSweepCell(time.Duration(c.Value*float64(kStar)), opts)
		if err != nil {
			return nil, err
		}
		row.Factor = c.Value
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	return &KSweepResult{KStar: kStar, Rows: rows}, nil
}

func runKSweepCell(k time.Duration, opts Options) (*KSweepRow, error) {
	lf, err := newLongFlows(opts, ksFlows, 100, scenario{proto: ProtoTRIM, newCC: func() tcp.CongestionControl {
		return core.New(core.Config{K: k, BaseRTT: ksBaseRTT})
	}, tcp: tcp.Config{MinRTO: 10 * time.Millisecond}})
	if err != nil {
		return nil, err
	}
	goodput, err := lf.run()
	if err != nil {
		return nil, err
	}
	return &KSweepRow{
		K:           k,
		Utilization: utilization(goodput),
		AvgQueue:    lf.series.Mean(),
		MaxQueue:    int(lf.series.Max()),
		Drops:       lf.queue.Stats().Dropped,
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
	tables(func(opts Options) (*KSweepResult, error) {
		return RunKSweep([]float64{0.25, 0.5, 0.75, 1, 1.5, 2, 4}, opts)
	}))
