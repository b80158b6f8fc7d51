package experiment

// recoverysweep: loss-recovery policy × AQM × fault-intensity × buffer
// matrix. The paper attributes the concurrent-train collapse to recovery
// degenerating from fast retransmit into RTO stalls; this sweep measures
// how much of that degeneration is the *recovery policy's* fault by
// crossing Classic (dup-ACK threshold), RACK-TLP (time-based detection +
// tail-loss probes), and switch-assisted T-RACKs against drop-tail and
// CoDel queues, the resilience fault ladder, and the tiny-buffer regime
// where tail drops are at their worst. MinRTO stays at the stock 200 ms
// (not the datacenter-tuned 10 ms the resilience matrix uses), so every
// repair Classic cannot trigger by dup ACKs costs a visible RTO stall —
// the regime RACK-TLP and T-RACKs were designed for. Every cell runs
// with the simulator's invariant checker armed.

import (
	"fmt"
	"io"
	"time"

	"tcptrim/internal/aqm"
	"tcptrim/internal/httpapp"
	"tcptrim/internal/metrics"
	"tcptrim/internal/tcp"
	"tcptrim/internal/topology"
	"tcptrim/internal/workload"
)

// Recovery-sweep scenario constants. The star and fault window mirror the
// resilience matrix; the workload is lighter (the matrix is 3× larger)
// and the RTO floor is the stock DefaultMinRTO so timeout stalls dominate
// whenever fast retransmit fails.
const (
	rwServers   = 3
	rwPerServer = 100
	rwDeadline  = 30 * time.Second
	rwMaxRTO    = 2 * time.Second
)

// RecoverySweepAQMs is the default queue-discipline axis.
var RecoverySweepAQMs = []string{"droptail", "codel"}

// RecoverySweepBuffers is the default buffer axis: the resilience
// matrix's 100-packet port and the tiny-buffer regime.
var RecoverySweepBuffers = []int{100, aqm.TinyBufferPackets}

// recoverySweepIntensities picks the fault rungs the sweep crosses:
// clean, moderate, severe (mild adds little over clean here).
func recoverySweepIntensities() []FaultIntensity {
	return []FaultIntensity{
		DefaultFaultIntensities[0],
		DefaultFaultIntensities[2],
		DefaultFaultIntensities[3],
	}
}

// RecoverySweepRow is one (policy, aqm, intensity, buffer) cell.
type RecoverySweepRow struct {
	Policy    string
	AQM       string
	Intensity string
	Buffer    int // packets
	// WindowMbps is fleet goodput inside the fault window.
	WindowMbps float64
	// MeanFCT / P99FCT summarize response completion times.
	MeanFCT time.Duration
	P99FCT  time.Duration
	// Timeouts counts RTO firings; Retrans splits retransmissions by
	// trigger (the sweep's core signal: how much repair each policy moves
	// out of the Timeout column).
	Timeouts int
	Retrans  httpapp.RetransBreakdown
	// RecoveryTime is how long past the fault window the last response
	// completed (0 = drained inside the window, negative = never).
	RecoveryTime time.Duration
	Complete     int
	Total        int
}

// RecoverySweepResult holds the matrix.
type RecoverySweepResult struct {
	Rows                 []RecoverySweepRow
	FaultStart, FaultEnd time.Duration
}

// Row returns the cell for the given coordinates, or nil.
func (r *RecoverySweepResult) Row(policy, aqmName, intensity string, buffer int) *RecoverySweepRow {
	for i := range r.Rows {
		row := &r.Rows[i]
		if row.Policy == policy && row.AQM == aqmName &&
			row.Intensity == intensity && row.Buffer == buffer {
			return row
		}
	}
	return nil
}

// RunRecoverySweep crosses policies × AQMs × intensities × buffers, one
// independent simulation per cell, each seeded via SplitSeed so the
// matrix is byte-identical regardless of worker count.
func RunRecoverySweep(policies, aqms []string, intensities []FaultIntensity, buffers []int, opts Options) (*RecoverySweepResult, error) {
	// An explicit -recovery / -aqm option narrows the matching axis: the
	// sweep's point is the cross product, but a single-policy run is the
	// cheap way to chase one cell.
	if name, ok, err := opts.recoveryOverride(); err != nil {
		return nil, err
	} else if ok {
		policies = []string{name}
	}
	if _, ok, err := opts.aqmOverride(); err != nil {
		return nil, err
	} else if ok {
		aqms = []string{opts.AQM}
	}
	for _, name := range policies {
		if _, err := tcp.NewRecoveryPolicy(name); err != nil {
			return nil, err
		}
	}
	for _, name := range aqms {
		if _, err := aqm.Parse(name); err != nil {
			return nil, err
		}
	}
	var cells []recoveryCell
	for _, p := range policies {
		for _, a := range aqms {
			for _, fi := range intensities {
				for _, b := range buffers {
					cells = append(cells, recoveryCell{p, a, fi, b, SplitSeed(opts.seed(), len(cells))})
				}
			}
		}
	}
	rows, err := sweep(opts, "recoverysweep", cells, func(c recoveryCell, opts Options) (*RecoverySweepRow, error) {
		return runRecoveryCell(c.Policy, c.AQM, c.Intensity, c.Buffer, c.Seed, opts)
	})
	if err != nil {
		return nil, err
	}
	return &RecoverySweepResult{Rows: rows, FaultStart: rsFaultStart, FaultEnd: rsFaultEnd}, nil
}

// recoveryCell is one coordinate of the matrix.
type recoveryCell struct {
	Policy    string         `json:"policy"`
	AQM       string         `json:"aqm"`
	Intensity FaultIntensity `json:"intensity"`
	Buffer    int            `json:"buffer"`
	Seed      int64          `json:"seed"`
}

func (c recoveryCell) String() string {
	return fmt.Sprintf("%s/%s/%s/%d-pkts", c.Policy, c.AQM, c.Intensity.Name, c.Buffer)
}

func runRecoveryCell(policy, aqmName string, fi FaultIntensity, buffer int, seed int64, opts Options) (*RecoverySweepRow, error) {
	sc, err := scenario{
		servers: rwServers, link: topology.DefaultStarLink(buffer),
		proto: ProtoTRIM, baseRTT: ksBaseRTT,
		tcp: tcp.Config{
			MinRTO: tcp.DefaultMinRTO,
			MaxRTO: rwMaxRTO,
			SACK:   true,
		},
		aqm: aqmName, recovery: policy,
		seed: seed, checkEvery: rsCheckEvery,
	}.build(opts)
	if err != nil {
		return nil, err
	}
	fleet := sc.fleet
	var d metrics.Distribution
	fleet.Collector().StreamTo(&d)
	if err := sc.responses(0, rwServers, 100*time.Millisecond, rwPerServer,
		workload.UniformSize{Min: 8 << 10, Max: 64 << 10},
		workload.ExponentialGap{Mean: 4 * time.Millisecond}); err != nil {
		return nil, err
	}

	// Fault arming mirrors the resilience matrix.
	window, err := injectFaults(sc.simEnv, sc.star.Bottleneck, fi, seed, fleet.TotalDelivered)
	if err != nil {
		return nil, err
	}
	// Stop as soon as the backlog drains; timeout-bound cells otherwise
	// idle to the deadline. The watch starts after the fault window so
	// the goodput snapshot above still runs.
	if err := sc.run(rwDeadline, rsFaultEnd, func() bool { return fleet.Collector().Pending() == 0 }); err != nil {
		return nil, err
	}

	return &RecoverySweepRow{
		Policy:       policy,
		AQM:          aqmName,
		Intensity:    fi.Name,
		Buffer:       buffer,
		Total:        rwServers * rwPerServer,
		WindowMbps:   window.mbps(),
		MeanFCT:      secondsToDuration(d.Mean()),
		P99FCT:       secondsToDuration(d.Percentile(99)),
		Timeouts:     fleet.TotalTimeouts(),
		Retrans:      fleet.Retransmissions(),
		RecoveryTime: recoveryTime(fleet.Collector(), rwServers*rwPerServer),
		Complete:     fleet.Collector().Count(),
	}, nil
}

// WriteTables renders the matrix with the per-trigger retransmission
// split.
func (r *RecoverySweepResult) WriteTables(w io.Writer) error {
	t := &Table{
		Title: "Extension: loss-recovery policy sweep (recovery x AQM x faults x buffer)",
		Header: []string{"recovery", "aqm", "faults", "buf", "goodput", "mean fct",
			"p99 fct", "timeouts", "rto-rtx", "fast-rtx", "tlp", "spurious",
			"signals", "recovery", "completed"},
		Caption: fmt.Sprintf("goodput measured inside the fault window [%v, %v); "+
			"MinRTO is the stock %v so each repair the policy cannot trigger early costs an RTO stall",
			r.FaultStart, r.FaultEnd, tcp.DefaultMinRTO),
	}
	for _, row := range r.Rows {
		recovery := row.RecoveryTime.Round(100 * time.Microsecond).String()
		if row.RecoveryTime < 0 {
			recovery = "never"
		}
		t.Rows = append(t.Rows, []string{
			row.Policy,
			row.AQM,
			row.Intensity,
			fmt.Sprintf("%d", row.Buffer),
			fmt.Sprintf("%.1f Mbps", row.WindowMbps),
			row.MeanFCT.Round(10 * time.Microsecond).String(),
			row.P99FCT.Round(10 * time.Microsecond).String(),
			fmt.Sprintf("%d", row.Timeouts),
			fmt.Sprintf("%d", row.Retrans.Timeout),
			fmt.Sprintf("%d", row.Retrans.Fast),
			fmt.Sprintf("%d", row.Retrans.Probes),
			fmt.Sprintf("%d", row.Retrans.Spurious),
			fmt.Sprintf("%d", row.Retrans.Signals),
			recovery,
			fmt.Sprintf("%d/%d", row.Complete, row.Total),
		})
	}
	return t.Write(w)
}

var _ = register("recoverysweep",
	"Loss-recovery sweep: policy x AQM x fault x buffer on the faulted incast star",
	[]string{"aqm", "recovery"},
	tables(func(opts Options) (*RecoverySweepResult, error) {
		return RunRecoverySweep(tcp.RecoveryNames(), RecoverySweepAQMs,
			recoverySweepIntensities(), RecoverySweepBuffers, opts)
	}))

// recoverysweep-smoke is the CI chaos check: all three policies on the
// hardest corner (severe faults, tiny drop-tail buffer), fast enough for
// every push.
var _ = register("recoverysweep-smoke",
	"CI slice of recoverysweep: all policies on the severe tiny-buffer corner",
	[]string{"aqm", "recovery"},
	tables(func(opts Options) (*RecoverySweepResult, error) {
		return RunRecoverySweep(tcp.RecoveryNames(), []string{"droptail"},
			[]FaultIntensity{DefaultFaultIntensities[3]}, []int{aqm.TinyBufferPackets}, opts)
	}))
