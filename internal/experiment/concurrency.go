package experiment

import (
	"fmt"
	"io"
	"time"

	"tcptrim/internal/httpapp"
	"tcptrim/internal/metrics"
	"tcptrim/internal/sim"
	"tcptrim/internal/tcp"
	"tcptrim/internal/topology"
	"tcptrim/internal/workload"
)

// Section II.B.2 concurrency scenario: the many-to-one star again
// ("we rebuild the previous many-to-one scenario"); 0–2 long-lived
// background flows ("LPTs") start at 0.1 s; the SPT servers first run the
// Section II.B warm-up (200 small responses from 0.1 s, which builds up
// their inherited windows exactly as in Fig. 4) and then burst one short
// train of 10 packets at 0.3 s; 200 ms RTO.
const (
	concLPTStart   = 100 * time.Millisecond
	concSPTStart   = 300 * time.Millisecond
	concSPTPackets = 10
	concHorizon    = 2 * time.Second
	concBackground = 1 << 30 // effectively endless
	concSPTLabel   = "spt"
)

// ConcurrencyCell is one (LPTs, SPTs) grid cell's outcome.
type ConcurrencyCell struct {
	LPTs, SPTs    int
	ACT, Min, Max time.Duration
	Timeouts      int
}

// ConcurrencyResult holds Fig. 5 (TCP) / Fig. 7 (TCP-TRIM) outputs.
type ConcurrencyResult struct {
	Protocol Protocol
	Cells    []ConcurrencyCell
}

// Cell returns the grid cell for (lpts, spts), or nil.
func (r *ConcurrencyResult) Cell(lpts, spts int) *ConcurrencyCell {
	for i := range r.Cells {
		if r.Cells[i].LPTs == lpts && r.Cells[i].SPTs == spts {
			return &r.Cells[i]
		}
	}
	return nil
}

// RunConcurrency sweeps the number of background long flows and
// concurrent short trains under the given protocol. Cells are
// independent simulations and run in parallel.
func RunConcurrency(proto Protocol, lptCounts []int, maxSPT int, opts Options) (*ConcurrencyResult, error) {
	var cells []concurrencyCell
	for _, lpts := range lptCounts {
		for spts := 1; spts <= maxSPT; spts++ {
			cells = append(cells, concurrencyCell{proto, lpts, spts, opts.seed()})
		}
	}
	rows, err := sweepConcurrency(cells, opts)
	if err != nil {
		return nil, err
	}
	return &ConcurrencyResult{Protocol: proto, Cells: rows}, nil
}

// concurrencyCell is one (protocol, LPTs, SPTs) cell; fig5, fig7 and
// abl-probe share the cells they have in common.
type concurrencyCell struct {
	Protocol Protocol `json:"protocol"`
	LPTs     int      `json:"lpts"`
	SPTs     int      `json:"spts"`
	Seed     int64    `json:"seed"`
}

func (c concurrencyCell) String() string { return fmt.Sprintf("%d-lpts/%d-spts", c.LPTs, c.SPTs) }

func sweepConcurrency(cells []concurrencyCell, opts Options) ([]ConcurrencyCell, error) {
	return sweep(opts, "concurrency", cells, func(c concurrencyCell, opts Options) (*ConcurrencyCell, error) {
		return runConcurrencyCell(c.Protocol, c.LPTs, c.SPTs, c.Seed, opts)
	})
}

func runConcurrencyCell(proto Protocol, lpts, spts int, seed int64, opts Options) (*ConcurrencyCell, error) {
	sc, err := scenario{
		servers: lpts + spts, link: topology.DefaultStarLink(100),
		proto: proto, tcp: tcp.Config{MinRTO: impairmentRTO},
		seed: seed + int64(lpts)*1000 + int64(spts),
	}.build(opts)
	if err != nil {
		return nil, err
	}
	if err := sc.background(0, lpts, concLPTStart); err != nil {
		return nil, err
	}
	var d metrics.Distribution
	spt := &httpapp.Collector{}
	spt.StreamTo(&d)
	// Each flow's warm-ups and its SPT burst: the hybrid timeline is sized
	// once for all flows.
	sc.fleet.Reserve(spts * (impairmentResponses + 1))
	for i := lpts; i < lpts+spts; i++ {
		// Warm-up: 200 small responses build the inherited window.
		if err := sc.responses(i, i+1, impairmentRespStart, impairmentResponses,
			workload.UniformSize{Min: impairmentRespMin, Max: impairmentRespMax},
			workload.ExponentialGap{Mean: impairmentRespMean}); err != nil {
			return nil, err
		}
		// The measured SPT burst at 0.3 s.
		if err := sc.fleet.ScheduleResponseAs(i, sim.At(concSPTStart), concSPTPackets*tcp.DefaultMSS, concSPTLabel, spt); err != nil {
			return nil, err
		}
	}
	// Stop as soon as every measured SPT completed; the background flows
	// would otherwise run to the horizon for nothing.
	if err := sc.run(concHorizon, concSPTStart, func() bool { return spt.Pending() == 0 }); err != nil {
		return nil, err
	}

	if d.Count() != spts {
		return nil, fmt.Errorf("concurrency cell L=%d S=%d: %d of %d SPTs completed",
			lpts, spts, d.Count(), spts)
	}
	timeouts := 0
	for i := lpts; i < lpts+spts; i++ {
		timeouts += sc.fleet.Stats(i).Timeouts
	}
	return &ConcurrencyCell{
		LPTs: lpts, SPTs: spts,
		ACT:      secondsToDuration(d.Mean()),
		Min:      secondsToDuration(d.Min()),
		Max:      secondsToDuration(d.Max()),
		Timeouts: timeouts,
	}, nil
}

func secondsToDuration(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}

// WriteTables renders the sweep.
func (r *ConcurrencyResult) WriteTables(w io.Writer) error {
	t := &Table{
		Title:  fmt.Sprintf("Concurrency impairment (%s) — Fig. 5 / Fig. 7 scenario", r.Protocol),
		Header: []string{"LPTs", "SPTs", "ACT", "min CT", "max CT", "SPT timeouts"},
	}
	for _, c := range r.Cells {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", c.LPTs),
			fmt.Sprintf("%d", c.SPTs),
			c.ACT.Round(10 * time.Microsecond).String(),
			c.Min.Round(10 * time.Microsecond).String(),
			c.Max.Round(10 * time.Microsecond).String(),
			fmt.Sprintf("%d", c.Timeouts),
		})
	}
	return t.Write(w)
}

var _ = register("fig5",
	"Concurrency impairment under legacy TCP: timeouts and completion vs background LPT count (Fig. 5)",
	nil,
	tables(func(opts Options) (*ConcurrencyResult, error) {
		return RunConcurrency(ProtoTCP, []int{0, 1, 2}, 10, opts)
	}))

var _ = register("fig7",
	"Concurrency impairment under TCP-TRIM on the Fig. 5 scenario (Fig. 7)",
	nil,
	func(opts Options, w io.Writer) error {
		trim, err := RunConcurrency(ProtoTRIM, []int{2}, 10, opts)
		if err != nil {
			return err
		}
		reno, err := RunConcurrency(ProtoTCP, []int{2}, 10, opts)
		if err != nil {
			return err
		}
		if err := trim.WriteTables(w); err != nil {
			return err
		}
		return reno.WriteTables(w)
	})
