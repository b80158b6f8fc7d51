package experiment

import (
	"fmt"
	"io"
	"time"

	"tcptrim/internal/httpapp"
	"tcptrim/internal/metrics"
	"tcptrim/internal/netsim"
	"tcptrim/internal/sim"
	"tcptrim/internal/tcp"
	"tcptrim/internal/topology"
	"tcptrim/internal/workload"
)

// Section IV.D "real implementation", reproduced in simulation with the
// testbed's parameters (see the substitution table in DESIGN.md).
//
// Fig. 13(a): 100 Mbps links; two machines send large files persistently;
// a third sends 100 responses whose mean size sweeps 32 KB – 1 MB (±10%);
// the metric is the average response completion time (ARCT).
//
// Fig. 13(b)–(e): 4 machines send 4000 responses total to the front-end
// over 1 Gbps links with the Fig. 2 size/interval distributions; the
// samples of 64–256 KB responses and the CDF of all completion times are
// reported for CUBIC, Reno, and TCP-TRIM.
const (
	tbLANDelay = 100 * time.Microsecond
	tbRTO      = 200 * time.Millisecond // Linux default floor
	// Queue-free RTT on the 100 Mbps star: data 2×(120+100) µs + ACK
	// 2×(3.2+100) µs ≈ 646 µs.
	tbBaseRTT100M = 650 * time.Microsecond
	// On the 1 Gbps star: ≈ 325 µs.
	tbBaseRTT1G = 325 * time.Microsecond

	tbARCTResponses = 100
	tbARCTThinkTime = 2 * time.Millisecond

	tbWebServers       = 4
	tbWebResponsesEach = 1000
	tbWebWindow        = 10 * time.Second
	tbWebHorizon       = 30 * time.Second
	tbSampleLo         = 64 << 10
	tbSampleHi         = 256 << 10
	tbGoodThreshold    = 25 * time.Millisecond
	tbBadThreshold     = 50 * time.Millisecond
	tbExtremeThreshold = 250 * time.Millisecond
	tbBufferPackets    = 100
)

// ARCTRow is one (protocol, mean size) cell of Fig. 13(a).
type ARCTRow struct {
	Protocol  Protocol
	MeanBytes int
	ARCT      time.Duration
	Timeouts  int
}

// ARCTResult holds Fig. 13(a).
type ARCTResult struct {
	Rows []ARCTRow
}

// Row returns the cell for (proto, meanBytes), or nil.
func (r *ARCTResult) Row(proto Protocol, meanBytes int) *ARCTRow {
	for i := range r.Rows {
		if r.Rows[i].Protocol == proto && r.Rows[i].MeanBytes == meanBytes {
			return &r.Rows[i]
		}
	}
	return nil
}

// ARCTMeanSizes is the paper's response-size sweep.
var ARCTMeanSizes = []int{32 << 10, 64 << 10, 128 << 10, 256 << 10, 512 << 10, 1 << 20}

// RunARCT executes the Fig. 13(a) sweep.
func RunARCT(protos []Protocol, meanSizes []int, opts Options) (*ARCTResult, error) {
	for _, p := range protos {
		if _, err := NewCC(p); err != nil {
			return nil, err
		}
	}
	var cells []arctCell
	for _, proto := range protos {
		for _, mean := range meanSizes {
			cells = append(cells, arctCell{proto, mean, opts.seed()})
		}
	}
	rows, err := sweep(opts, "arct", cells, func(c arctCell) (*ARCTRow, error) {
		return runARCTCell(c.Protocol, c.MeanBytes, c.Seed, opts)
	})
	if err != nil {
		return nil, err
	}
	return &ARCTResult{Rows: rows}, nil
}

// arctCell is one (protocol, mean size) cell.
type arctCell struct {
	Protocol  Protocol `json:"protocol"`
	MeanBytes int      `json:"mean_bytes"`
	Seed      int64    `json:"seed"`
}

func (c arctCell) String() string { return fmt.Sprintf("%s/%dKB", c.Protocol, c.MeanBytes>>10) }

func runARCTCell(proto Protocol, meanBytes int, seed int64, opts Options) (*ARCTRow, error) {
	rng := sim.NewRand(seed + int64(meanBytes))
	env := newSimEnv(opts)
	sched := env.sched
	link := netsim.LinkConfig{
		Rate:  100 * netsim.Mbps,
		Delay: tbLANDelay,
		Queue: netsim.QueueConfig{CapPackets: tbBufferPackets},
	}
	star := topology.NewStar(sched, 3, link)
	fleet, err := httpapp.NewFleet(star.Net, httpapp.FleetConfig{
		Senders:  star.Senders,
		FrontEnd: star.FrontEnd,
		NewCC:    func() tcp.CongestionControl { return MustCCWithBaseRTT(proto, tbBaseRTT100M) },
		Base: tcp.Config{
			MinRTO:   tbRTO,
			ECN:      UsesECN(proto),
			LinkRate: 100 * netsim.Mbps,
		},
	})
	if err != nil {
		return nil, err
	}
	// Two background large-file transfers.
	for i := 0; i < 2; i++ {
		if err := fleet.Servers[i].StartBackgroundFlow(sim.At(50*time.Millisecond), concBackground); err != nil {
			return nil, err
		}
	}
	// The third machine sends its responses sequentially: the next is
	// released a think-time after the previous completes. When the chain
	// finishes it raises done, and a watch ends the run.
	responses := &httpapp.Collector{}
	sizes := workload.JitteredSize{Mean: meanBytes, Jitter: 0.1}
	csched := fleet.Conns[2].Scheduler()
	var sendNext func()
	sent := 0
	done := false
	sendNext = func() {
		if sent >= tbARCTResponses {
			done = true
			return
		}
		sent++
		fleet.Conns[2].SendTrain(sizes.Sample(rng), func(r tcp.TrainResult) {
			responses.Add("responses", 0, r)
			csched.After(tbARCTThinkTime, sendNext)
		})
	}
	if _, err := csched.At(sim.At(100*time.Millisecond), sendNext); err != nil {
		return nil, err
	}
	if err := env.stopWhen(sim.At(100*time.Millisecond), 10*time.Millisecond, func() bool { return done }); err != nil {
		return nil, err
	}
	if err := env.runUntil(sim.At(10 * time.Minute)); err != nil { // bounded by the done watch
		return nil, err
	}

	var d metrics.Distribution
	for _, r := range responses.Responses() {
		d.AddDuration(r.CompletionTime())
	}
	return &ARCTRow{
		Protocol:  proto,
		MeanBytes: meanBytes,
		ARCT:      secondsToDuration(d.Mean()),
		Timeouts:  fleet.Conns[2].Stats().Timeouts,
	}, nil
}

// WriteTables renders Fig. 13(a).
func (r *ARCTResult) WriteTables(w io.Writer) error {
	t := &Table{
		Title:  "Fig. 13(a): ARCT vs mean response size (100 Mbps testbed)",
		Header: []string{"protocol", "mean size", "ARCT", "timeouts"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			string(row.Protocol),
			fmt.Sprintf("%dKB", row.MeanBytes>>10),
			row.ARCT.Round(100 * time.Microsecond).String(),
			fmt.Sprintf("%d", row.Timeouts),
		})
	}
	return t.Write(w)
}

// WebServiceRow summarizes one protocol's Fig. 13(b)–(e) outcome.
type WebServiceRow struct {
	Protocol Protocol
	// Completed of Scheduled responses.
	Completed, Scheduled int
	// Band metrics for 64–256 KB responses (the scatter plots).
	BandCount     int
	BandMax       time.Duration
	BandOver25ms  int
	BandOver50ms  int
	BandOver250ms int
	// CDF metrics over all responses (Fig. 13(e)).
	FractionUnder25ms float64
	P50, P99          time.Duration
	Timeouts          int
}

// WebServiceResult holds Fig. 13(b)–(e).
type WebServiceResult struct {
	Rows []WebServiceRow
}

// Row returns the row for proto, or nil.
func (r *WebServiceResult) Row(proto Protocol) *WebServiceRow {
	for i := range r.Rows {
		if r.Rows[i].Protocol == proto {
			return &r.Rows[i]
		}
	}
	return nil
}

// WebServiceProtocols is the paper's Fig. 13(b)–(e) comparison set.
var WebServiceProtocols = []Protocol{ProtoCUBIC, ProtoTCP, ProtoTRIM}

// RunWebService executes the Fig. 13(b)–(e) web-service scenario.
func RunWebService(protos []Protocol, opts Options) (*WebServiceResult, error) {
	rows, err := sweep(opts, "fig13", seededCells(opts, protos), func(c seededCell[Protocol]) (*WebServiceRow, error) {
		return runWebServiceCell(c.Value, c.Seed, opts)
	})
	if err != nil {
		return nil, err
	}
	return &WebServiceResult{Rows: rows}, nil
}

func runWebServiceCell(proto Protocol, seed int64, opts Options) (*WebServiceRow, error) {
	if _, err := NewCC(proto); err != nil {
		return nil, err
	}
	rng := sim.NewRand(seed)
	env := newSimEnv(opts)
	sched := env.sched
	star := topology.NewStar(sched, tbWebServers, netsim.LinkConfig{
		Rate:  netsim.Gbps,
		Delay: tbLANDelay,
		Queue: netsim.QueueConfig{CapPackets: tbBufferPackets},
	})
	fleet, err := httpapp.NewFleet(star.Net, httpapp.FleetConfig{
		Senders:  star.Senders,
		FrontEnd: star.FrontEnd,
		NewCC:    func() tcp.CongestionControl { return MustCCWithBaseRTT(proto, tbBaseRTT1G) },
		Base: tcp.Config{
			MinRTO:   tbRTO,
			ECN:      UsesECN(proto),
			LinkRate: netsim.Gbps,
		},
	})
	if err != nil {
		return nil, err
	}
	scheduled := 0
	for _, srv := range fleet.Servers {
		trains := workload.ScheduleCount(rng, sim.At(100*time.Millisecond), tbWebResponsesEach,
			workload.PTSizes{}, workload.PTGaps{})
		if err := srv.ScheduleTrains(trains); err != nil {
			return nil, err
		}
		scheduled += len(trains)
	}
	if err := env.stopWhen(sim.At(tbWebWindow), 10*time.Millisecond, func() bool { return fleet.Collector.Pending() == 0 }); err != nil {
		return nil, err
	}
	if err := env.runUntil(sim.At(tbWebHorizon)); err != nil {
		return nil, err
	}

	row := &WebServiceRow{Protocol: proto, Scheduled: scheduled}
	var all metrics.Distribution
	for _, r := range fleet.Collector.Responses() {
		ct := r.CompletionTime()
		all.AddDuration(ct)
		row.Completed++
		if r.Bytes >= tbSampleLo && r.Bytes <= tbSampleHi {
			row.BandCount++
			if ct > row.BandMax {
				row.BandMax = ct
			}
			if ct > tbGoodThreshold {
				row.BandOver25ms++
			}
			if ct > tbBadThreshold {
				row.BandOver50ms++
			}
			if ct > tbExtremeThreshold {
				row.BandOver250ms++
			}
		}
	}
	row.FractionUnder25ms = all.FractionBelow(tbGoodThreshold.Seconds())
	row.P50 = secondsToDuration(all.Percentile(50))
	row.P99 = secondsToDuration(all.Percentile(99))
	row.Timeouts = fleet.TotalTimeouts()
	return row, nil
}

// WriteTables renders Fig. 13(b)–(e).
func (r *WebServiceResult) WriteTables(w io.Writer) error {
	t := &Table{
		Title: "Fig. 13(b)-(e): web-service response completion times",
		Header: []string{"protocol", "completed", "64-256KB max", ">25ms", ">50ms", ">250ms",
			"P50", "P99", "frac<=25ms", "timeouts"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			string(row.Protocol),
			fmt.Sprintf("%d/%d", row.Completed, row.Scheduled),
			row.BandMax.Round(100 * time.Microsecond).String(),
			fmt.Sprintf("%d/%d", row.BandOver25ms, row.BandCount),
			fmt.Sprintf("%d", row.BandOver50ms),
			fmt.Sprintf("%d", row.BandOver250ms),
			row.P50.Round(10 * time.Microsecond).String(),
			row.P99.Round(100 * time.Microsecond).String(),
			fmt.Sprintf("%.3f", row.FractionUnder25ms),
			fmt.Sprintf("%d", row.Timeouts),
		})
	}
	return t.Write(w)
}

var _ = register("fig13a",
	"ARCT vs mean response size on the 100 Mbps testbed, CUBIC vs TCP-TRIM (Fig. 13a)",
	nil,
	tables(func(opts Options) (*ARCTResult, error) {
		return RunARCT([]Protocol{ProtoCUBIC, ProtoTRIM}, ARCTMeanSizes, opts)
	}))

var _ = register("fig13",
	"Web-service response completion times across protocols (Fig. 13b-e)",
	nil,
	tables(func(opts Options) (*WebServiceResult, error) {
		return RunWebService(WebServiceProtocols, opts)
	}))
