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

// tbLink is the testbed's LAN link at the given rate.
func tbLink(rate netsim.Bitrate) netsim.LinkConfig {
	return netsim.LinkConfig{Rate: rate, Delay: tbLANDelay, Queue: netsim.QueueConfig{CapPackets: tbBufferPackets}}
}

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
	var cells []arctCell
	for _, proto := range protos {
		for _, mean := range meanSizes {
			cells = append(cells, arctCell{proto, mean, opts.seed()})
		}
	}
	rows, err := sweep(opts, "arct", cells, func(c arctCell, opts Options) (*ARCTRow, error) {
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
	sc, err := scenario{
		servers: 3,
		link:    tbLink(100 * netsim.Mbps),
		proto:   proto, baseRTT: tbBaseRTT100M, tcp: tcp.Config{MinRTO: tbRTO},
		seed: seed + int64(meanBytes),
	}.build(opts)
	if err != nil {
		return nil, err
	}
	// Two background large-file transfers.
	if err := sc.background(0, 2, 50*time.Millisecond); err != nil {
		return nil, err
	}
	// The third machine sends its responses sequentially: the next is
	// released a think-time after the previous completes. When the chain
	// finishes it raises done, and a watch ends the run.
	responses := &httpapp.Collector{}
	sizes := workload.JitteredSize{Mean: meanBytes, Jitter: 0.1}
	sent := 0
	done := false
	if err := sc.fleet.ScheduleConnAt(2, sim.At(100*time.Millisecond), func(conn *tcp.Conn) {
		var sendNext func()
		sendNext = func() {
			if sent >= tbARCTResponses {
				done = true
				return
			}
			sent++
			conn.SendTrain(sizes.Sample(sc.rng), func(r tcp.TrainResult) {
				responses.Add("responses", 0, r)
				conn.Scheduler().After(tbARCTThinkTime, sendNext)
			})
		}
		sendNext()
	}); err != nil {
		return nil, err
	}
	// Bounded by the done watch.
	if err := sc.run(10*time.Minute, 100*time.Millisecond, func() bool { return done }); err != nil {
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
		Timeouts:  sc.fleet.Stats(2).Timeouts,
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
	rows, err := sweep(opts, "fig13", seededCells(opts, protos), func(c seededCell[Protocol], opts Options) (*WebServiceRow, error) {
		return runWebServiceCell(c.Value, c.Seed, opts)
	})
	if err != nil {
		return nil, err
	}
	return &WebServiceResult{Rows: rows}, nil
}

func runWebServiceCell(proto Protocol, seed int64, opts Options) (*WebServiceRow, error) {
	sc, err := scenario{
		servers: tbWebServers,
		link:    tbLink(netsim.Gbps),
		proto:   proto, baseRTT: tbBaseRTT1G, tcp: tcp.Config{MinRTO: tbRTO},
		seed: seed,
	}.build(opts)
	if err != nil {
		return nil, err
	}
	fleet := sc.fleet
	if err := sc.responses(0, tbWebServers, 100*time.Millisecond, tbWebResponsesEach, workload.PTSizes{}, workload.PTGaps{}); err != nil {
		return nil, err
	}
	scheduled := tbWebServers * tbWebResponsesEach
	if err := sc.run(tbWebHorizon, tbWebWindow, func() bool { return fleet.Collector().Pending() == 0 }); err != nil {
		return nil, err
	}

	row := &WebServiceRow{Protocol: proto, Scheduled: scheduled}
	var all metrics.Distribution
	for _, r := range fleet.Collector().Responses() {
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
