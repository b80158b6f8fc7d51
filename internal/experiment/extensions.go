package experiment

// Extension experiments beyond the paper's evaluation:
//
//   - ext-deadline: D2TCP vs DCTCP on a deadline-bound incast — the
//     deadline-aware back-off the paper discusses in related work.
//   - ext-delay: Vegas vs TCP-TRIM on the ON/OFF impairment workload —
//     a delay-based scheme without TRIM's probe-based inheritance still
//     suffers the inherited-window burst.

import (
	"fmt"
	"io"
	"time"

	"tcptrim/internal/cc"
	"tcptrim/internal/httpapp"
	"tcptrim/internal/netsim"
	"tcptrim/internal/sim"
	"tcptrim/internal/tcp"
	"tcptrim/internal/topology"
)

// Deadline-incast scenario: 16 senders each push one 64 KB response to
// the front-end at the same instant. Half the flows carry a tight
// deadline that is *below* the fair-share completion time (they can only
// make it if the other flows yield), half a loose one. D2TCP's
// far/near-deadline modulation should let the tight half meet their
// deadlines without costing the loose half theirs; deadline-blind DCTCP
// shares evenly and the tight half misses.
const (
	dlSenders     = 16
	dlBytes       = 256 << 10
	dlStart       = 100 * time.Millisecond
	dlTightBudget = 30 * time.Millisecond
	dlLooseBudget = 300 * time.Millisecond
	dlHorizon     = 2 * time.Second
	dlECNThresh   = 20
)

// DeadlineRow is one policy's outcome on the deadline incast.
type DeadlineRow struct {
	Policy     string
	TightMet   int
	TightTotal int
	LooseMet   int
	LooseTotal int
	MeanCT     time.Duration
	WorstCT    time.Duration
	Timeouts   int
}

// DeadlineResult holds the ext-deadline comparison.
type DeadlineResult struct {
	TightBudget time.Duration
	LooseBudget time.Duration
	Rows        []DeadlineRow
}

// Row returns the row for the named policy, or nil.
func (r *DeadlineResult) Row(policy string) *DeadlineRow {
	for i := range r.Rows {
		if r.Rows[i].Policy == policy {
			return &r.Rows[i]
		}
	}
	return nil
}

// RunDeadline executes the deadline incast under DCTCP and D2TCP.
func RunDeadline(opts Options) (*DeadlineResult, error) {
	policies := []string{"DCTCP", "D2TCP"}
	rows, err := sweep(opts, "ext-deadline", seededCells(opts, policies), func(c seededCell[string], opts Options) (*DeadlineRow, error) {
		return runDeadlineCell(c.Value, opts)
	})
	if err != nil {
		return nil, err
	}
	return &DeadlineResult{TightBudget: dlTightBudget, LooseBudget: dlLooseBudget, Rows: rows}, nil
}

func deadlineFor(flowIdx int) time.Duration {
	if flowIdx%2 == 0 {
		return dlTightBudget
	}
	return dlLooseBudget
}

func runDeadlineCell(policy string, opts Options) (*DeadlineRow, error) {
	env := newSimEnv(opts)
	sched := env.sched
	star := topology.NewStar(sched, dlSenders, netsim.LinkConfig{
		Rate:  netsim.Gbps,
		Delay: 50 * time.Microsecond,
		Queue: netsim.QueueConfig{CapPackets: 100, ECNThresholdPackets: dlECNThresh},
	})
	net := star.Net
	feStack := tcp.NewStack(net, star.FrontEnd)
	collector := &httpapp.Collector{}
	var conns []*tcp.Conn
	for i, h := range star.Senders {
		budget := deadlineFor(i)
		deadline := sim.At(dlStart + budget)
		var policyCC tcp.CongestionControl
		if policy == "D2TCP" {
			policyCC = cc.NewD2TCP(deadline, dlBytes)
		} else {
			policyCC = cc.NewDCTCP()
		}
		conn, err := tcp.NewConn(tcp.Config{
			Sender:   tcp.NewStack(net, h),
			Receiver: feStack,
			Flow:     netsim.FlowID(i + 1),
			CC:       policyCC,
			ECN:      true,
			MinRTO:   10 * time.Millisecond,
			LinkRate: netsim.Gbps,
		})
		if err != nil {
			return nil, err
		}
		conns = append(conns, conn)
		srv := httpapp.NewServer(sched, conn, fmt.Sprintf("f%d", i), collector)
		if err := srv.ScheduleResponse(sim.At(dlStart), dlBytes); err != nil {
			return nil, err
		}
	}
	if err := env.runUntil(sim.At(dlHorizon)); err != nil {
		return nil, err
	}

	row := &DeadlineRow{Policy: policy}
	var sum time.Duration
	for _, r := range collector.Responses() {
		var idx int
		if _, err := fmt.Sscanf(r.Label, "f%d", &idx); err != nil {
			return nil, fmt.Errorf("bad label %q: %w", r.Label, err)
		}
		budget := deadlineFor(idx)
		ct := r.CompletionTime()
		sum += ct
		if ct > row.WorstCT {
			row.WorstCT = ct
		}
		met := ct <= budget
		if budget == dlTightBudget {
			row.TightTotal++
			if met {
				row.TightMet++
			}
		} else {
			row.LooseTotal++
			if met {
				row.LooseMet++
			}
		}
	}
	if n := len(collector.Responses()); n > 0 {
		row.MeanCT = sum / time.Duration(n)
	}
	for _, c := range conns {
		row.Timeouts += c.Stats().Timeouts
	}
	return row, nil
}

// WriteTables renders ext-deadline.
func (r *DeadlineResult) WriteTables(w io.Writer) error {
	t := &Table{
		Title: fmt.Sprintf("Extension: deadline incast (%d×%dKB, tight %v / loose %v)",
			dlSenders, dlBytes>>10, r.TightBudget, r.LooseBudget),
		Header: []string{"policy", "tight met", "loose met", "mean CT", "worst CT", "timeouts"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Policy,
			fmt.Sprintf("%d/%d", row.TightMet, row.TightTotal),
			fmt.Sprintf("%d/%d", row.LooseMet, row.LooseTotal),
			row.MeanCT.Round(10 * time.Microsecond).String(),
			row.WorstCT.Round(10 * time.Microsecond).String(),
			fmt.Sprintf("%d", row.Timeouts),
		})
	}
	return t.Write(w)
}

// DelayBasedRow is one policy's outcome on the ON/OFF impairment
// workload.
type DelayBasedRow struct {
	Policy   string
	Timeouts int
	QueueMax int
	LPTMean  time.Duration
}

// DelayBasedResult holds the ext-delay comparison.
type DelayBasedResult struct {
	Rows []DelayBasedRow
}

// Row returns the row for the named policy, or nil.
func (r *DelayBasedResult) Row(policy string) *DelayBasedRow {
	for i := range r.Rows {
		if r.Rows[i].Policy == policy {
			return &r.Rows[i]
		}
	}
	return nil
}

// RunDelayBased runs Vegas and TCP-TRIM on the Section II.B workload:
// both are delay-based end-to-end schemes, but only TRIM handles the
// window-inheritance burst.
func RunDelayBased(opts Options) (*DelayBasedResult, error) {
	out := &DelayBasedResult{}
	for _, policy := range []string{"Vegas", "TCP-TRIM"} {
		res, err := runImpairmentWith(policy, opts)
		if err != nil {
			return nil, err
		}
		var mean time.Duration
		for _, ct := range res.LPTCompletion {
			mean += ct
		}
		mean /= time.Duration(len(res.LPTCompletion))
		out.Rows = append(out.Rows, DelayBasedRow{
			Policy:   policy,
			Timeouts: res.TotalTimeouts(),
			QueueMax: res.QueueMax,
			LPTMean:  mean,
		})
	}
	return out, nil
}

func runImpairmentWith(policy string, opts Options) (*ImpairmentResult, error) {
	if policy == "TCP-TRIM" {
		return RunImpairment(ProtoTRIM, opts)
	}
	return runImpairmentCustom(policy, func() tcp.CongestionControl { return cc.NewVegas() }, opts)
}

// WriteTables renders ext-delay.
func (r *DelayBasedResult) WriteTables(w io.Writer) error {
	t := &Table{
		Title:  "Extension: delay-based schemes on the ON/OFF workload",
		Header: []string{"policy", "timeouts", "queue max", "mean LPT completion"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Policy,
			fmt.Sprintf("%d", row.Timeouts),
			fmt.Sprintf("%d", row.QueueMax),
			row.LPTMean.Round(10 * time.Microsecond).String(),
		})
	}
	return t.Write(w)
}

var _ = register("ext-deadline",
	"Extension: D2TCP vs DCTCP on a deadline-bound incast",
	nil,
	tables(RunDeadline))

var _ = register("ext-delay",
	"Extension: delay-based schemes (Vegas) on the ON/OFF impairment workload",
	nil,
	tables(RunDelayBased))
