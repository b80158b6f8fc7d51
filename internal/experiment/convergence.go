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
)

// Fig. 10 scenario: six hosts behind a 100-packet switch; the receiver
// link is 1 Gbps / 50 µs while the five sender links are 1.1 Gbps (so the
// receiver link is the single bottleneck); long flows start at 0.1 s,
// 2.1 s, …, 8.1 s and stop at 12.1 s, 14.1 s, …, 20.1 s.
const (
	convFlows     = 5
	convFirstOn   = 100 * time.Millisecond
	convStagger   = 2 * time.Second
	convFirstOff  = 12*time.Second + 100*time.Millisecond
	convHorizon   = 21 * time.Second
	convBin       = 100 * time.Millisecond
	convChunkSize = 1 << 20
)

// ConvergenceResult holds the Fig. 10 outputs.
type ConvergenceResult struct {
	Protocol Protocol
	// Throughput is each connection's goodput series in Mbps, 100 ms
	// bins.
	Throughput []*metrics.Series
	// JainAllActive is the Jain fairness index over the window where all
	// five flows are active (10.1 s – 12.1 s).
	JainAllActive float64
	// ShareStd is the standard deviation (Mbps) of per-flow mean
	// throughput in the all-active window — the paper's "large
	// variation" observation for TCP.
	ShareStd float64
	// MeanShare is the per-flow mean throughput (Mbps) in that window.
	MeanShare []float64
	// Timeouts across all flows.
	Timeouts int
}

// RunConvergence executes the Fig. 10 fairness/convergence test once per
// protocol.
func RunConvergence(protos []Protocol, opts Options) ([]ConvergenceResult, error) {
	for _, p := range protos {
		if _, err := NewCC(p, 0); err != nil {
			return nil, err
		}
	}
	res, err := sweep(opts, "fig10", seededCells(opts, protos), func(c seededCell[Protocol], opts Options) (*ConvergenceResult, error) {
		return runConvergenceCell(c.Value, opts)
	})
	if err != nil {
		return nil, err
	}
	// CSV export runs on cold and warm cells alike: CSVDir is not part of
	// a cell's key.
	for _, r := range res {
		for i, s := range r.Throughput {
			if err := saveSeriesCSV(opts, fmt.Sprintf("fig10-%s-c%d", r.Protocol, i+1), "mbps", s); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}

func runConvergenceCell(proto Protocol, opts Options) (*ConvergenceResult, error) {
	env := newSimEnv(opts)
	sched := env.sched
	net := netsim.NewNetwork(sched)
	sw := net.AddSwitch("sw")
	recvLink := netsim.LinkConfig{
		Rate:  netsim.Gbps,
		Delay: 50 * time.Microsecond,
		Queue: netsim.QueueConfig{CapPackets: 100},
	}
	sendLink := netsim.LinkConfig{
		Rate:  1100 * netsim.Mbps,
		Delay: 50 * time.Microsecond,
		Queue: netsim.QueueConfig{CapPackets: 100},
	}
	receiver := net.AddHost("frontend")
	net.Connect(sw, receiver, recvLink)
	senders := make([]*netsim.Host, convFlows)
	for i := range senders {
		senders[i] = net.AddHost(fmt.Sprintf("c%d", i+1))
		net.Connect(senders[i], sw, sendLink)
	}
	// Queue-free RTT of the topology: data 10.9+50 + 12+50 µs, ACK
	// ≈ 0.3+50 + 0.3+50 µs ≈ 224 µs. Configuring D keeps K identical
	// across the staggered flows (Eq. 22's D is a topology constant).
	const convBaseRTT = 225 * time.Microsecond
	fleet, err := httpapp.NewFleet(net, httpapp.FleetConfig{
		Senders:  senders,
		FrontEnd: receiver,
		NewCC:    func() tcp.CongestionControl { return mustCC(proto, convBaseRTT) },
		Base: tcp.Config{
			MinRTO:   10 * time.Millisecond,
			ECN:      UsesECN(proto),
			LinkRate: netsim.Gbps,
		},
		LabelPrefix: "c",
	})
	if err != nil {
		return nil, err
	}
	res := &ConvergenceResult{Protocol: proto}
	for i, srv := range fleet.Servers {
		on := sim.At(convFirstOn + time.Duration(i)*convStagger)
		off := sim.At(convFirstOff + time.Duration(i)*convStagger)
		if err := srv.StartChunkedFlow(on, off, convChunkSize); err != nil {
			return nil, err
		}
		conn := fleet.Conns[i]
		series := metrics.BinnedRate(sched, 0, sim.At(convHorizon), convBin,
			func() int64 { return conn.DeliveredBytes() })
		res.Throughput = append(res.Throughput, series)
	}
	if err := env.runUntil(sim.At(convHorizon)); err != nil {
		return nil, err
	}

	for _, s := range res.Throughput {
		scaleSeries(s, 1e-6)
	}
	// All-active window: after the last flow started and before the
	// first stopped.
	winLo := sim.At(convFirstOn + time.Duration(convFlows-1)*convStagger + 500*time.Millisecond)
	winHi := sim.At(convFirstOff)
	var shares []float64
	var sum, sumSq float64
	for _, s := range res.Throughput {
		var acc metrics.Summary
		for _, p := range s.Points() {
			if p.At >= winLo && p.At <= winHi {
				acc.Add(p.Value)
			}
		}
		shares = append(shares, acc.Mean())
	}
	for _, v := range shares {
		sum += v
		sumSq += v * v
	}
	if sumSq > 0 {
		res.JainAllActive = sum * sum / (float64(len(shares)) * sumSq)
	}
	var std metrics.Summary
	for _, v := range shares {
		std.Add(v)
	}
	res.ShareStd = std.Std()
	res.MeanShare = shares
	res.Timeouts = fleet.TotalTimeouts()
	return res, nil
}

// WriteTables renders the Fig. 10 outputs.
func (r *ConvergenceResult) WriteTables(w io.Writer) error {
	t := &Table{
		Title:  fmt.Sprintf("Fig. 10 convergence/fairness (%s)", r.Protocol),
		Header: []string{"connection", "mean share 10.6-12.1s (Mbps)"},
	}
	for i, v := range r.MeanShare {
		t.Rows = append(t.Rows, []string{fmt.Sprintf("c%d", i+1), fmt.Sprintf("%.1f", v)})
	}
	t.Caption = fmt.Sprintf("Jain index %.4f, share std %.1f Mbps, timeouts %d",
		r.JainAllActive, r.ShareStd, r.Timeouts)
	return t.Write(w)
}

var _ = register("fig10",
	"Convergence and fairness of staggered long flows: Jain index and share spread (Fig. 10)",
	[]string{"csv"},
	func(opts Options, w io.Writer) error {
		res, err := RunConvergence([]Protocol{ProtoTCP, ProtoTRIM}, opts)
		if err != nil {
			return err
		}
		for _, r := range res {
			if err := r.WriteTables(w); err != nil {
				return err
			}
		}
		return nil
	})
