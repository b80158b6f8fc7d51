package experiment

import (
	"fmt"
	"io"
	"time"

	"tcptrim/internal/core"
	"tcptrim/internal/metrics"
	"tcptrim/internal/tcp"
)

// Ablations for the design choices DESIGN.md calls out:
//
//   - abl-inherit: window-inheritance policies on the Fig. 4 workload —
//     blind inheritance (Reno), unconditional restart (GIP), conditional
//     probe-based inheritance (TRIM).
//   - abl-probe: TRIM without probing and without queue control on the
//     Fig. 5 worst case.
//   - abl-alpha: the smoothed-RTT gain α on the Fig. 9 queue metrics.

// InheritanceRow is one protocol's outcome on the impairment workload.
type InheritanceRow struct {
	Protocol Protocol
	// LPTMean is the mean long-train completion time — the cost of
	// being too conservative (GIP) or too aggressive (Reno) after idle.
	LPTMean time.Duration
	// Timeouts across all connections.
	Timeouts int
	QueueMax int
}

// InheritanceResult holds the abl-inherit comparison.
type InheritanceResult struct {
	Rows []InheritanceRow
}

// Row returns the row for proto, or nil.
func (r *InheritanceResult) Row(proto Protocol) *InheritanceRow {
	for i := range r.Rows {
		if r.Rows[i].Protocol == proto {
			return &r.Rows[i]
		}
	}
	return nil
}

// RunInheritanceAblation compares window-inheritance policies on the
// Section II.B workload.
func RunInheritanceAblation(opts Options) (*InheritanceResult, error) {
	out := &InheritanceResult{}
	for _, proto := range []Protocol{ProtoTCP, ProtoGIP, ProtoTRIM} {
		res, err := RunImpairment(proto, opts)
		if err != nil {
			return nil, err
		}
		var mean metrics.Summary
		for _, ct := range res.LPTCompletion {
			mean.Add(ct.Seconds())
		}
		out.Rows = append(out.Rows, InheritanceRow{
			Protocol: proto,
			LPTMean:  secondsToDuration(mean.Mean()),
			Timeouts: res.TotalTimeouts(),
			QueueMax: res.QueueMax,
		})
	}
	return out, nil
}

// WriteTables renders abl-inherit.
func (r *InheritanceResult) WriteTables(w io.Writer) error {
	t := &Table{
		Title:  "Ablation: window inheritance policy (Fig. 4 workload)",
		Header: []string{"policy", "mean LPT completion", "timeouts", "queue max"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			string(row.Protocol),
			row.LPTMean.Round(10 * time.Microsecond).String(),
			fmt.Sprintf("%d", row.Timeouts),
			fmt.Sprintf("%d", row.QueueMax),
		})
	}
	return t.Write(w)
}

// MechanismRow is one TRIM variant's outcome on the concurrency worst
// case.
type MechanismRow struct {
	Protocol Protocol
	ACT      time.Duration
	MaxCT    time.Duration
	Timeouts int
}

// MechanismResult holds the abl-probe comparison.
type MechanismResult struct {
	Rows []MechanismRow
}

// Row returns the row for proto, or nil.
func (r *MechanismResult) Row(proto Protocol) *MechanismRow {
	for i := range r.Rows {
		if r.Rows[i].Protocol == proto {
			return &r.Rows[i]
		}
	}
	return nil
}

// RunMechanismAblation compares full TRIM against its two mechanisms in
// isolation (and Reno) on the 2-LPT × 8-SPT concurrency cell; the TCP and
// TRIM cells are fig7's.
func RunMechanismAblation(opts Options) (*MechanismResult, error) {
	var cells []concurrencyCell
	for _, proto := range []Protocol{ProtoTCP, ProtoTRIMNoProbe, ProtoTRIMNoQueue, ProtoTRIM} {
		cells = append(cells, concurrencyCell{proto, 2, 8, opts.seed()})
	}
	rows, err := sweepConcurrency(cells, opts)
	if err != nil {
		return nil, err
	}
	out := &MechanismResult{}
	for i, cell := range rows {
		out.Rows = append(out.Rows, MechanismRow{
			Protocol: cells[i].Protocol,
			ACT:      cell.ACT,
			MaxCT:    cell.Max,
			Timeouts: cell.Timeouts,
		})
	}
	return out, nil
}

// WriteTables renders abl-probe.
func (r *MechanismResult) WriteTables(w io.Writer) error {
	t := &Table{
		Title:  "Ablation: TRIM mechanisms (2 LPTs × 8 SPTs)",
		Header: []string{"variant", "ACT", "max CT", "SPT timeouts"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			string(row.Protocol),
			row.ACT.Round(10 * time.Microsecond).String(),
			row.MaxCT.Round(10 * time.Microsecond).String(),
			fmt.Sprintf("%d", row.Timeouts),
		})
	}
	return t.Write(w)
}

// AlphaRow is one smoothing-gain setting's outcome.
type AlphaRow struct {
	Alpha       float64
	AvgQueue    float64
	Drops       int
	GoodputMbps float64
}

// AlphaResult holds the abl-alpha sweep.
type AlphaResult struct {
	Rows []AlphaRow
}

// RunAlphaAblation sweeps TRIM's smoothed-RTT gain on the Fig. 9 5-flow
// scenario.
func RunAlphaAblation(alphas []float64, opts Options) (*AlphaResult, error) {
	rows, err := sweep(opts, "abl-alpha", seededCells(opts, alphas), func(c seededCell[float64], opts Options) (*AlphaRow, error) {
		return runAlphaCell(c.Value, opts)
	})
	if err != nil {
		return nil, err
	}
	return &AlphaResult{Rows: rows}, nil
}

func runAlphaCell(alpha float64, opts Options) (*AlphaRow, error) {
	lf, err := newLongFlows(opts, 5, 100, scenario{proto: ProtoTRIM, newCC: func() tcp.CongestionControl {
		return core.New(core.Config{Alpha: alpha, BaseRTT: ksBaseRTT})
	}, tcp: tcp.Config{MinRTO: 10 * time.Millisecond}})
	if err != nil {
		return nil, err
	}
	goodput, err := lf.run()
	if err != nil {
		return nil, err
	}
	return &AlphaRow{
		Alpha:       alpha,
		AvgQueue:    lf.series.Mean(),
		Drops:       lf.queue.Stats().Dropped,
		GoodputMbps: goodput / 1e6,
	}, nil
}

// WriteTables renders abl-alpha.
func (r *AlphaResult) WriteTables(w io.Writer) error {
	t := &Table{
		Title:  "Ablation: smoothed-RTT gain α (Fig. 9 scenario, 5 TRIM flows)",
		Header: []string{"alpha", "avg queue", "drops", "goodput (Mbps)"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.3f", row.Alpha),
			fmt.Sprintf("%.1f", row.AvgQueue),
			fmt.Sprintf("%d", row.Drops),
			fmt.Sprintf("%.0f", row.GoodputMbps),
		})
	}
	return t.Write(w)
}

var _ = register("abl-inherit",
	"Ablation: window inheritance policy on the Fig. 4 workload",
	nil,
	tables(RunInheritanceAblation))

var _ = register("abl-probe",
	"Ablation: TRIM probe and queue-control mechanisms (2 LPTs x 8 SPTs)",
	nil,
	tables(RunMechanismAblation))

var _ = register("abl-alpha",
	"Ablation: smoothed-RTT gain alpha on the Fig. 9 scenario",
	nil,
	tables(func(opts Options) (*AlphaResult, error) {
		return RunAlphaAblation([]float64{0.125, 0.25, 0.5}, opts)
	}))
