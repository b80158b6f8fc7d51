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
)

// Fig. 12 / Table I scenario: a k-pod fat-tree with 10 Gbps links and
// 350 KB switch buffers. Every server sends 1 MB over a persistent
// connection to a randomly selected sink server "which acts as the
// front-end": one host per pod serves as a front-end (the paper's
// partition/aggregation pattern), and each remaining server picks one at
// random. The 1 MB is pre-divided into small objects of 2–6 KB released
// from 0.1 s and one big object (the remainder) released at 0.5 s, so the
// big objects collide as a many-to-one burst with inherited windows.
// DCTCP/L2DCT use the standard 10 Gbps ECN marking threshold (65
// packets).
const (
	ftTotalBytes   = 1 << 20
	ftSmallMin     = 2 << 10
	ftSmallMax     = 6 << 10
	ftSmallCount   = 100
	ftSmallStart   = 100 * time.Millisecond
	ftSmallGapMean = 100 * time.Microsecond
	ftBigStart     = 500 * time.Millisecond
	ftHorizon      = 5 * time.Second
	ftRTO          = 10 * time.Millisecond
	ftBufferBytes  = 350 << 10
	ftECNThreshold = 65 // packets, standard DCTCP K for 10 Gbps
	ftLinkDelay    = 10 * time.Microsecond
	// Queue-free inter-pod RTT: 6 hops × (1.2+10) µs data + 6 × 10 µs
	// ACK ≈ 128 µs.
	ftBaseRTT = 128 * time.Microsecond
)

// FatTreeRow is one (protocol, pods) cell of Fig. 12 / Table I.
type FatTreeRow struct {
	Protocol Protocol
	Pods     int
	Servers  int
	// MeanCT / MaxCT are over the per-response completion times of all
	// servers' objects, small and big (Fig. 12).
	MeanCT time.Duration
	MaxCT  time.Duration
	// Timeouts is the total number of RTO events (Table I).
	Timeouts int
	// Completed counts senders whose 1 MB fully completed; Servers is
	// the number of sending servers (hosts minus the per-pod
	// front-ends).
	Completed int
}

// FatTreeResult holds the protocol comparison.
type FatTreeResult struct {
	Rows []FatTreeRow
}

// Row returns the cell for (proto, pods), or nil.
func (r *FatTreeResult) Row(proto Protocol, pods int) *FatTreeRow {
	for i := range r.Rows {
		if r.Rows[i].Protocol == proto && r.Rows[i].Pods == pods {
			return &r.Rows[i]
		}
	}
	return nil
}

// RunFatTree executes the Fig. 12 / Table I comparison over the given
// pod counts and protocols.
func RunFatTree(protos []Protocol, podCounts []int, opts Options) (*FatTreeResult, error) {
	for _, p := range protos {
		if _, err := NewCC(p, 0); err != nil {
			return nil, err
		}
	}
	var cells []fatTreeCell
	for _, pods := range podCounts {
		for _, proto := range protos {
			cells = append(cells, fatTreeCell{proto, pods, opts.seed()})
		}
	}
	rows, err := sweep(opts, "fattree", cells, func(c fatTreeCell, opts Options) (*FatTreeRow, error) {
		return runFatTreeCell(c.Protocol, c.Pods, c.Seed, opts)
	})
	if err != nil {
		return nil, err
	}
	return &FatTreeResult{Rows: rows}, nil
}

// fatTreeCell is one (protocol, pods) cell.
type fatTreeCell struct {
	Protocol Protocol `json:"protocol"`
	Pods     int      `json:"pods"`
	Seed     int64    `json:"seed"`
}

func (c fatTreeCell) String() string { return fmt.Sprintf("%s/%d-pods", c.Protocol, c.Pods) }

func runFatTreeCell(proto Protocol, pods int, seed int64, opts Options) (*FatTreeRow, error) {
	env := newSimEnv(opts)
	rng := env.rand(seed + int64(pods)*101)
	sched := env.sched
	link := netsim.LinkConfig{
		Rate:  10 * netsim.Gbps,
		Delay: ftLinkDelay,
		Queue: netsim.QueueConfig{
			CapBytes:            ftBufferBytes,
			ECNThresholdPackets: ftECNThreshold,
		},
	}
	ft, err := topology.NewFatTree(sched, pods, link)
	if err != nil {
		return nil, err
	}
	n := len(ft.Hosts)
	stacks := make([]*tcp.Stack, n)
	for i, h := range ft.Hosts {
		stacks[i] = tcp.NewStack(ft.Net, h)
	}
	// One front-end per pod: the first host of each pod's first edge
	// switch (hosts are laid out pod-major).
	perPod := n / pods
	frontEnds := make([]int, 0, pods)
	isFrontEnd := make(map[int]bool, pods)
	for p := 0; p < pods; p++ {
		frontEnds = append(frontEnds, p*perPod)
		isFrontEnd[p*perPod] = true
	}

	collector := &httpapp.Collector{}
	bigC := &httpapp.Collector{}
	var conns []*tcp.Conn
	for i := range ft.Hosts {
		if isFrontEnd[i] {
			continue
		}
		sink := frontEnds[rng.Intn(len(frontEnds))]
		conn, err := tcp.NewConn(tcp.Config{
			Sender:   stacks[i],
			Receiver: stacks[sink],
			Flow:     netsim.FlowID(i + 1),
			CC:       mustCC(proto, ftBaseRTT),
			MinRTO:   ftRTO,
			ECN:      UsesECN(proto),
			LinkRate: 10 * netsim.Gbps,
		})
		if err != nil {
			return nil, err
		}
		conns = append(conns, conn)
		srv := httpapp.NewServer(conn.Scheduler(), conn, fmt.Sprintf("h%d", i), collector)

		// Small objects from 0.1 s, then the big remainder at 0.5 s.
		sent := 0
		at := sim.At(ftSmallStart)
		for k := 0; k < ftSmallCount && sent < ftTotalBytes/2; k++ {
			size := ftSmallMin + rng.Intn(ftSmallMax-ftSmallMin+1)
			if err := srv.ScheduleResponse(at, size); err != nil {
				return nil, err
			}
			sent += size
			at = at.Add(time.Duration(rng.ExpFloat64() * float64(ftSmallGapMean)))
		}
		// The big remainder is a response like any other; its completion
		// (release at 0.5 s → last byte ACKed) is the tail-defining
		// sample. done tracks big objects so the run can stop early.
		remainder := ftTotalBytes - sent
		if err := srv.ScheduleResponseAs(sim.At(ftBigStart), remainder, "big", bigC); err != nil {
			return nil, err
		}
	}

	if err := env.stopWhen(sim.At(ftBigStart), 10*time.Millisecond, func() bool {
		return bigC.Pending() == 0 && collector.Pending() == 0
	}); err != nil {
		return nil, err
	}
	if err := env.runUntil(sim.At(ftHorizon)); err != nil {
		return nil, err
	}

	var cts metrics.Distribution
	for _, r := range collector.Responses() {
		cts.AddDuration(r.CompletionTime())
	}
	for _, r := range bigC.Responses() {
		cts.AddDuration(r.CompletionTime())
	}
	row := &FatTreeRow{Protocol: proto, Pods: pods, Servers: len(conns), Completed: len(bigC.Responses())}
	row.MeanCT = secondsToDuration(cts.Mean())
	row.MaxCT = secondsToDuration(cts.Max())
	for _, c := range conns {
		row.Timeouts += c.Stats().Timeouts
	}
	return row, nil
}

// WriteTables renders Fig. 12 and Table I.
func (r *FatTreeResult) WriteTables(w io.Writer) error {
	fig := &Table{
		Title:  "Fig. 12: mean and maximum completion times in the 10 Gbps fat-tree",
		Header: []string{"pods", "servers", "protocol", "mean CT", "max CT", "completed"},
	}
	tab := &Table{
		Title:  "Table I: number of timeouts in each protocol",
		Header: []string{"pods", "protocol", "timeouts"},
	}
	for _, row := range r.Rows {
		fig.Rows = append(fig.Rows, []string{
			fmt.Sprintf("%d", row.Pods),
			fmt.Sprintf("%d", row.Servers),
			string(row.Protocol),
			row.MeanCT.Round(10 * time.Microsecond).String(),
			row.MaxCT.Round(10 * time.Microsecond).String(),
			fmt.Sprintf("%d/%d", row.Completed, row.Servers),
		})
		tab.Rows = append(tab.Rows, []string{
			fmt.Sprintf("%d", row.Pods),
			string(row.Protocol),
			fmt.Sprintf("%d", row.Timeouts),
		})
	}
	if err := fig.Write(w); err != nil {
		return err
	}
	return tab.Write(w)
}

// FatTreeProtocols is the paper's comparison set.
var FatTreeProtocols = []Protocol{ProtoTCP, ProtoDCTCP, ProtoL2DCT, ProtoTRIM}

var _ = register("fig12",
	"Mean and maximum completion times in the 10 Gbps fat-tree (Fig. 12)",
	nil,
	tables(func(opts Options) (*FatTreeResult, error) {
		return RunFatTree(FatTreeProtocols, []int{4, 6, 8, 10}, opts)
	}))

var _ = register("table1",
	"Timeout counts per protocol in the 10 Gbps fat-tree (Table I)",
	nil,
	tables(func(opts Options) (*FatTreeResult, error) {
		return RunFatTree(FatTreeProtocols, []int{4, 6, 8, 10}, opts)
	}))
