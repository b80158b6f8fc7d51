package experiment

// ext-loss: robustness to non-congestive (random) packet loss — e.g.
// flaky optics. Delay-based TRIM's window control does not depend on loss
// as a signal, but loss still costs it recoveries like everyone else; the
// SACK extension recovers multi-loss windows without timeouts. The
// experiment sweeps a loss rate over the Fig. 4 ON/OFF workload and
// reports response completion behaviour for TCP and TCP-TRIM with and
// without SACK.

import (
	"fmt"
	"io"
	"strings"
	"time"

	"tcptrim/internal/metrics"
	"tcptrim/internal/tcp"
	"tcptrim/internal/topology"
	"tcptrim/internal/workload"
)

// LossRow is one (variant, loss rate) cell.
type LossRow struct {
	Variant  string
	LossPct  float64
	ACT      time.Duration
	P99      time.Duration
	Timeouts int
	Retrans  int
	Complete int
	Total    int
}

// LossResult holds the ext-loss sweep.
type LossResult struct {
	Rows []LossRow
}

// Row returns the cell for (variant, lossPct), or nil.
func (r *LossResult) Row(variant string, lossPct float64) *LossRow {
	for i := range r.Rows {
		if r.Rows[i].Variant == variant && r.Rows[i].LossPct == lossPct {
			return &r.Rows[i]
		}
	}
	return nil
}

// LossVariants are the compared sender configurations.
var LossVariants = []string{"TCP", "TCP+SACK", "TCP-TRIM", "TCP-TRIM+SACK"}

// RunLossRobustness sweeps random loss rates over an ON/OFF response
// workload.
func RunLossRobustness(lossPcts []float64, opts Options) (*LossResult, error) {
	var cells []lossCell
	for _, pct := range lossPcts {
		for _, variant := range LossVariants {
			cells = append(cells, lossCell{variant, pct, opts.seed()})
		}
	}
	rows, err := sweep(opts, "ext-loss", cells, func(c lossCell, opts Options) (*LossRow, error) {
		return runLossCell(c.Variant, c.LossPct, c.Seed, opts)
	})
	if err != nil {
		return nil, err
	}
	return &LossResult{Rows: rows}, nil
}

// lossCell is one (variant, loss rate) cell.
type lossCell struct {
	Variant string  `json:"variant"`
	LossPct float64 `json:"loss_pct"`
	Seed    int64   `json:"seed"`
}

func (c lossCell) String() string { return fmt.Sprintf("%s/%.1f%%", c.Variant, c.LossPct) }

func runLossCell(variant string, lossPct float64, seed int64, opts Options) (*LossRow, error) {
	proto := ProtoTCP
	if strings.HasPrefix(variant, "TCP-TRIM") {
		proto = ProtoTRIM
	}
	sc, err := scenario{
		servers: 3, link: topology.DefaultStarLink(200),
		proto: proto, baseRTT: ksBaseRTT,
		tcp:  tcp.Config{MinRTO: 10 * time.Millisecond, SACK: strings.HasSuffix(variant, "+SACK")},
		seed: seed,
	}.build(opts)
	if err != nil {
		return nil, err
	}
	// Loss on the shared bottleneck, deterministic per cell.
	sc.star.Bottleneck.InjectLoss(lossPct/100, sc.rand(seed+int64(lossPct*100)))
	var cts metrics.Distribution
	sc.fleet.Collector().StreamTo(&cts)
	const perServer = 150
	if err := sc.responses(0, 3, 100*time.Millisecond, perServer,
		workload.UniformSize{Min: 8 << 10, Max: 64 << 10},
		workload.ExponentialGap{Mean: 2 * time.Millisecond}); err != nil {
		return nil, err
	}
	if err := sc.run(20*time.Second, 0, nil); err != nil {
		return nil, err
	}

	return &LossRow{
		Variant:  variant,
		LossPct:  lossPct,
		Total:    3 * perServer,
		Complete: cts.Count(),
		ACT:      secondsToDuration(cts.Mean()),
		P99:      secondsToDuration(cts.Percentile(99)),
		Timeouts: sc.fleet.TotalTimeouts(),
		Retrans:  sc.fleet.Retransmissions().Total,
	}, nil
}

// WriteTables renders ext-loss.
func (r *LossResult) WriteTables(w io.Writer) error {
	t := &Table{
		Title:  "Extension: robustness to random (non-congestive) loss",
		Header: []string{"variant", "loss %", "ACT", "P99", "timeouts", "retrans", "completed"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Variant,
			fmt.Sprintf("%.1f", row.LossPct),
			row.ACT.Round(10 * time.Microsecond).String(),
			row.P99.Round(10 * time.Microsecond).String(),
			fmt.Sprintf("%d", row.Timeouts),
			fmt.Sprintf("%d", row.Retrans),
			fmt.Sprintf("%d/%d", row.Complete, row.Total),
		})
	}
	return t.Write(w)
}

var _ = register("ext-loss",
	"Extension: robustness to random non-congestive loss, with and without SACK",
	nil,
	tables(func(opts Options) (*LossResult, error) {
		return RunLossRobustness([]float64{0, 1, 4}, opts)
	}))
