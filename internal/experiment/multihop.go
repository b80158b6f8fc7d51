package experiment

import (
	"fmt"
	"io"
	"time"

	"tcptrim/internal/httpapp"
	"tcptrim/internal/netsim"
	"tcptrim/internal/sim"
	"tcptrim/internal/tcp"
	"tcptrim/internal/topology"
)

// Fig. 11 scenario: groups A and B (10 senders each) send long trains to
// the front-end; group C sends to group-D receivers; the two 10 Gbps
// links are the bottlenecks and group A crosses both.
const (
	mhFlowStart = 100 * time.Millisecond
	mhHorizon   = 1100 * time.Millisecond
	// Queue-free RTT of the longest (group A) path: data
	// (12+50)+(1.2+50)+(1.2+50) µs plus the ACK path ≈ 315 µs; groups B
	// and C differ by tens of µs, within the threshold's tolerance.
	mhBaseRTT = 315 * time.Microsecond
)

// MultiHopResult holds the Fig. 11 per-group mean sender throughputs.
type MultiHopResult struct {
	Protocol Protocol
	// MeanMbps maps group name ("A", "B", "C") to the mean per-sender
	// goodput in Mbps over the measurement window.
	MeanMbps map[string]float64
	Timeouts int
	Drops    int
}

// RunMultiHop executes the Fig. 11 dual-bottleneck test once per protocol.
func RunMultiHop(protos []Protocol, opts Options) ([]MultiHopResult, error) {
	for _, p := range protos {
		if _, err := NewCC(p, 0); err != nil {
			return nil, err
		}
	}
	return sweep(opts, "fig11", seededCells(opts, protos), func(c seededCell[Protocol], opts Options) (*MultiHopResult, error) {
		return runMultiHopCell(c.Value, opts)
	})
}

func runMultiHopCell(proto Protocol, opts Options) (*MultiHopResult, error) {
	env := newSimEnv(opts)
	sched := env.sched
	m := topology.NewMultiHop(sched, topology.MultiHopConfig{})

	base := tcp.Config{
		MinRTO:   impairmentRTO, // the paper's 200 ms default
		ECN:      UsesECN(proto),
		LinkRate: netsim.Gbps,
	}

	// Groups A and B target the front-end through a shared fleet.
	fleetAB, err := httpapp.NewFleet(m.Net, httpapp.FleetConfig{
		Senders:  append(append([]*netsim.Host{}, m.GroupA...), m.GroupB...),
		FrontEnd: m.FrontEnd,
		NewCC:    func() tcp.CongestionControl { return mustCC(proto, mhBaseRTT) },
		Base:     base,
	})
	if err != nil {
		return nil, err
	}
	// Group C pairs with group D receivers one to one.
	var cConns []*tcp.Conn
	for i, h := range m.GroupC {
		conn, err := tcp.NewConn(tcp.Config{
			Sender:   tcp.NewStack(m.Net, h),
			Receiver: tcp.NewStack(m.Net, m.GroupD[i]),
			Flow:     netsim.FlowID(1000 + i),
			CC:       mustCC(proto, mhBaseRTT),
			MinRTO:   base.MinRTO,
			ECN:      base.ECN,
			LinkRate: base.LinkRate,
		})
		if err != nil {
			return nil, err
		}
		cConns = append(cConns, conn)
	}

	for _, srv := range fleetAB.Servers {
		if err := srv.StartBackgroundFlow(sim.At(mhFlowStart), concBackground); err != nil {
			return nil, err
		}
	}
	for _, conn := range cConns {
		conn := conn
		if _, err := sched.At(sim.At(mhFlowStart), func() {
			conn.SendTrain(concBackground, nil)
		}); err != nil {
			return nil, err
		}
	}
	if err := env.runUntil(sim.At(mhHorizon)); err != nil {
		return nil, err
	}

	window := (mhHorizon - mhFlowStart).Seconds()
	meanOf := func(conns []*tcp.Conn) float64 {
		var sum float64
		for _, c := range conns {
			sum += float64(c.DeliveredBytes()) * 8 / window / 1e6
		}
		return sum / float64(len(conns))
	}
	n := len(m.GroupA)
	res := &MultiHopResult{
		Protocol: proto,
		MeanMbps: map[string]float64{
			"A": meanOf(fleetAB.Conns[:n]),
			"B": meanOf(fleetAB.Conns[n:]),
			"C": meanOf(cConns),
		},
	}
	res.Timeouts = fleetAB.TotalTimeouts()
	for _, c := range cConns {
		res.Timeouts += c.Stats().Timeouts
	}
	res.Drops = m.Bottleneck1.Queue().Stats().Dropped + m.Bottleneck2.Queue().Stats().Dropped
	return res, nil
}

// WriteTables renders the Fig. 11 outputs.
func (r *MultiHopResult) WriteTables(w io.Writer) error {
	t := &Table{
		Title:  fmt.Sprintf("Fig. 11 multi-hop throughput (%s)", r.Protocol),
		Header: []string{"group", "mean per-sender Mbps"},
		Rows: [][]string{
			{"A (both bottlenecks)", fmt.Sprintf("%.1f", r.MeanMbps["A"])},
			{"B (second bottleneck)", fmt.Sprintf("%.1f", r.MeanMbps["B"])},
			{"C (first bottleneck)", fmt.Sprintf("%.1f", r.MeanMbps["C"])},
		},
		Caption: fmt.Sprintf("timeouts %d, bottleneck drops %d", r.Timeouts, r.Drops),
	}
	return t.Write(w)
}

var _ = register("fig11",
	"Multi-hop chain throughput, TCP vs TCP-TRIM (Fig. 11)",
	nil,
	func(opts Options, w io.Writer) error {
		res, err := RunMultiHop([]Protocol{ProtoTCP, ProtoTRIM}, opts)
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
