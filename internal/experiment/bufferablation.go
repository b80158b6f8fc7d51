package experiment

import (
	"fmt"
	"io"
	"time"

	"tcptrim/internal/aqm"
	"tcptrim/internal/httpapp"
	"tcptrim/internal/metrics"
	"tcptrim/internal/netsim"
	"tcptrim/internal/sim"
	"tcptrim/internal/tcp"
	"tcptrim/internal/topology"
)

// abl-buffer: switch-buffer sensitivity. The paper's deployment argument
// rests on COTS switches with shallow buffers; TRIM keeps its standing
// queue at ≈ C(K−D) regardless of how much buffer exists above it, while
// drop-tail TCP's loss rate and timeouts scale with the buffer. The
// ablation sweeps the buffer across the shallow range on the 5-flow star.

// BufferRow is one (protocol, buffer) cell.
type BufferRow struct {
	Protocol    Protocol
	Buffer      int // packets
	AvgQueue    float64
	Drops       int
	Timeouts    int
	GoodputMbps float64
}

// BufferResult holds the abl-buffer sweep.
type BufferResult struct {
	Rows []BufferRow
}

// Row returns the cell for (proto, buffer), or nil.
func (r *BufferResult) Row(proto Protocol, buffer int) *BufferRow {
	for i := range r.Rows {
		if r.Rows[i].Protocol == proto && r.Rows[i].Buffer == buffer {
			return &r.Rows[i]
		}
	}
	return nil
}

// RunBufferAblation sweeps the star's switch buffer for each protocol.
func RunBufferAblation(protos []Protocol, buffers []int, opts Options) (*BufferResult, error) {
	for _, p := range protos {
		if _, err := NewCC(p); err != nil {
			return nil, err
		}
	}
	type cell struct {
		proto Protocol
		buf   int
	}
	var cells []cell
	for _, p := range protos {
		for _, b := range buffers {
			cells = append(cells, cell{p, b})
		}
	}
	rows, err := RunTrials(len(cells), func(i int) (*BufferRow, error) {
		return runBufferCell(cells[i].proto, cells[i].buf, opts)
	})
	if err != nil {
		return nil, err
	}
	out := &BufferResult{}
	for _, row := range rows {
		out.Rows = append(out.Rows, *row)
	}
	return out, nil
}

func runBufferCell(proto Protocol, buffer int, opts Options) (*BufferRow, error) {
	env := newSimEnv(opts)
	sched := env.sched
	star := topology.NewStar(sched, 5, topology.DefaultStarLink(buffer))
	fleet, err := httpapp.NewFleet(star.Net, httpapp.FleetConfig{
		Senders:  star.Senders,
		FrontEnd: star.FrontEnd,
		NewCC:    func() tcp.CongestionControl { return MustCCWithBaseRTT(proto, ksBaseRTT) },
		Base: tcp.Config{
			MinRTO:   10 * time.Millisecond,
			ECN:      UsesECN(proto),
			LinkRate: netsim.Gbps,
		},
	})
	if err != nil {
		return nil, err
	}
	for _, srv := range fleet.Servers {
		if err := srv.StartBackgroundFlow(sim.At(propFlowStart), concBackground); err != nil {
			return nil, err
		}
	}
	queue := star.Bottleneck.Queue()
	series := metrics.Sample(sched, sim.At(propFlowStart), sim.At(propFlowStop),
		propSampleStep, func() float64 { return float64(queue.Len()) })
	if err := env.runUntil(sim.At(propFlowStop)); err != nil {
		return nil, err
	}

	window := (propFlowStop - propFlowStart).Seconds()
	return &BufferRow{
		Protocol:    proto,
		Buffer:      buffer,
		AvgQueue:    series.Mean(),
		Drops:       queue.Stats().Dropped,
		Timeouts:    fleet.TotalTimeouts(),
		GoodputMbps: float64(fleet.TotalDelivered()) * 8 / window / 1e6,
	}, nil
}

// WriteTables renders abl-buffer.
func (r *BufferResult) WriteTables(w io.Writer) error {
	t := &Table{
		Title:  "Ablation: switch-buffer sensitivity (5 long flows, 1 Gbps star)",
		Header: []string{"protocol", "buffer (pkts)", "avg queue", "drops", "timeouts", "goodput (Mbps)"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			string(row.Protocol),
			fmt.Sprintf("%d", row.Buffer),
			fmt.Sprintf("%.1f", row.AvgQueue),
			fmt.Sprintf("%d", row.Drops),
			fmt.Sprintf("%d", row.Timeouts),
			fmt.Sprintf("%.0f", row.GoodputMbps),
		})
	}
	return t.Write(w)
}

// BufferAblationCaps is the abl-buffer sweep: the tiny-buffer regime
// (aqm.TinyBufferCaps — a few packets per port, where tail drops turn
// straight into RTO stalls) ahead of the historical shallow range.
func BufferAblationCaps() []int {
	return append(aqm.TinyBufferCaps(), 20, 50, 100, 200)
}

var _ = register("abl-buffer",
	"Ablation: switch-buffer sensitivity from the tiny-buffer regime up to 200 packets",
	nil,
	func(opts Options, w io.Writer) error {
		res, err := RunBufferAblation([]Protocol{ProtoTCP, ProtoTRIM}, BufferAblationCaps(), opts)
		if err != nil {
			return err
		}
		return res.WriteTables(w)
	})
