package experiment

// ext-scatter: request-driven partition/aggregation. Unlike the
// pre-scheduled bursts of the reproduced figures, here the front-end
// actually fans a request out over persistent connections and the
// responses synchronize themselves (the request arrival is the trigger) —
// the closest model of the paper's production pattern. Repeated scatters
// grow the response connections' windows between rounds, so each round
// replays the window-inheritance hazard; the metric is the aggregation
// barrier latency (slowest worker).

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
)

const (
	scWorkers   = 24
	scRounds    = 50
	scInterval  = 20 * time.Millisecond
	scReqBytes  = 400
	scRespBytes = 48 << 10
	scThink     = 200 * time.Microsecond
	scHorizon   = 5 * time.Second
)

// ScatterRow is one protocol's scatter/gather outcome.
type ScatterRow struct {
	Protocol    Protocol
	Rounds      int
	MeanBarrier time.Duration
	P99Barrier  time.Duration
	MaxBarrier  time.Duration
	Timeouts    int
}

// ScatterResult holds ext-scatter.
type ScatterResult struct {
	Rows []ScatterRow
}

// Row returns the row for proto, or nil.
func (r *ScatterResult) Row(proto Protocol) *ScatterRow {
	for i := range r.Rows {
		if r.Rows[i].Protocol == proto {
			return &r.Rows[i]
		}
	}
	return nil
}

// RunScatterGather executes the request-driven partition/aggregation
// comparison.
func RunScatterGather(protos []Protocol, opts Options) (*ScatterResult, error) {
	rows, err := sweep(opts, "ext-scatter", seededCells(opts, protos), func(c seededCell[Protocol], opts Options) (*ScatterRow, error) {
		return runScatterCell(c.Value, opts)
	})
	if err != nil {
		return nil, err
	}
	return &ScatterResult{Rows: rows}, nil
}

func runScatterCell(proto Protocol, opts Options) (*ScatterRow, error) {
	if _, err := NewCC(proto, 0); err != nil {
		return nil, err
	}
	env := newSimEnv(opts)
	sched := env.sched
	// ECN marking enabled at the standard 1 Gbps threshold so DCTCP has
	// its signal; non-ECT traffic (TCP, TRIM) is unaffected.
	star := topology.NewStar(sched, scWorkers, netsim.LinkConfig{
		Rate:  netsim.Gbps,
		Delay: 50 * time.Microsecond,
		Queue: netsim.QueueConfig{CapPackets: 100, ECNThresholdPackets: 20},
	})
	feStack := tcp.NewStack(star.Net, star.FrontEnd)
	collector := &httpapp.Collector{}
	var rpcs []*httpapp.RPC
	var respConns []*tcp.Conn
	for i, h := range star.Senders {
		srvStack := tcp.NewStack(star.Net, h)
		// Requests are tiny and flow front-end → server on plain TCP;
		// the protocol under test carries the responses.
		req, err := tcp.NewConn(tcp.Config{
			Sender: feStack, Receiver: srvStack,
			Flow:   netsim.FlowID(1000 + i),
			MinRTO: impairmentRTO,
		})
		if err != nil {
			return nil, err
		}
		resp, err := tcp.NewConn(tcp.Config{
			Sender: srvStack, Receiver: feStack,
			Flow:     netsim.FlowID(2000 + i),
			CC:       mustCC(proto, ksBaseRTT),
			ECN:      UsesECN(proto),
			MinRTO:   impairmentRTO,
			LinkRate: netsim.Gbps,
		})
		if err != nil {
			return nil, err
		}
		respConns = append(respConns, resp)
		rpcs = append(rpcs, httpapp.NewRPC(sched, req, resp, fmt.Sprintf("w%d", i+1), collector))
	}
	sg := httpapp.NewScatterGather(sched, rpcs, collector)
	var barriers metrics.Distribution
	for round := 0; round < scRounds; round++ {
		at := sim.At(100*time.Millisecond + time.Duration(round)*scInterval)
		if err := sg.Scatter(at, scReqBytes, scRespBytes, scThink, func(d time.Duration) {
			barriers.AddDuration(d)
		}); err != nil {
			return nil, err
		}
	}
	if err := env.runUntil(sim.At(scHorizon)); err != nil {
		return nil, err
	}

	row := &ScatterRow{Protocol: proto, Rounds: barriers.Count()}
	row.MeanBarrier = secondsToDuration(barriers.Mean())
	row.P99Barrier = secondsToDuration(barriers.Percentile(99))
	row.MaxBarrier = secondsToDuration(barriers.Max())
	for _, c := range respConns {
		row.Timeouts += c.Stats().Timeouts
	}
	return row, nil
}

// WriteTables renders ext-scatter.
func (r *ScatterResult) WriteTables(w io.Writer) error {
	t := &Table{
		Title: fmt.Sprintf("Extension: request-driven scatter/gather (%d workers × %d rounds, %dKB responses)",
			scWorkers, scRounds, scRespBytes>>10),
		Header: []string{"protocol", "rounds", "mean barrier", "P99 barrier", "max barrier", "timeouts"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			string(row.Protocol),
			fmt.Sprintf("%d", row.Rounds),
			row.MeanBarrier.Round(10 * time.Microsecond).String(),
			row.P99Barrier.Round(10 * time.Microsecond).String(),
			row.MaxBarrier.Round(10 * time.Microsecond).String(),
			fmt.Sprintf("%d", row.Timeouts),
		})
	}
	return t.Write(w)
}

var _ = register("ext-scatter",
	"Extension: request-driven scatter/gather - aggregation barrier latency across rounds",
	nil,
	tables(func(opts Options) (*ScatterResult, error) {
		return RunScatterGather([]Protocol{ProtoTCP, ProtoDCTCP, ProtoTRIM}, opts)
	}))
