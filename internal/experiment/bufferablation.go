package experiment

import (
	"fmt"
	"io"
	"time"

	"tcptrim/internal/aqm"
	"tcptrim/internal/tcp"
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
	var cells []bufferCell
	for _, p := range protos {
		for _, b := range buffers {
			cells = append(cells, bufferCell{p, b, opts.seed()})
		}
	}
	rows, err := sweep(opts, "abl-buffer", cells, func(c bufferCell, opts Options) (*BufferRow, error) {
		return runBufferCell(c.Protocol, c.Buffer, opts)
	})
	if err != nil {
		return nil, err
	}
	return &BufferResult{Rows: rows}, nil
}

// bufferCell is one (protocol, buffer) cell.
type bufferCell struct {
	Protocol Protocol `json:"protocol"`
	Buffer   int      `json:"buffer"`
	Seed     int64    `json:"seed"`
}

func (c bufferCell) String() string { return fmt.Sprintf("%s/%d-pkts", c.Protocol, c.Buffer) }

func runBufferCell(proto Protocol, buffer int, opts Options) (*BufferRow, error) {
	lf, err := newLongFlows(opts, 5, buffer, scenario{proto: proto, baseRTT: ksBaseRTT,
		tcp: tcp.Config{MinRTO: 10 * time.Millisecond}})
	if err != nil {
		return nil, err
	}
	goodput, err := lf.run()
	if err != nil {
		return nil, err
	}
	return &BufferRow{
		Protocol:    proto,
		Buffer:      buffer,
		AvgQueue:    lf.series.Mean(),
		Drops:       lf.queue.Stats().Dropped,
		Timeouts:    lf.fleet.TotalTimeouts(),
		GoodputMbps: goodput / 1e6,
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
	tables(func(opts Options) (*BufferResult, error) {
		return RunBufferAblation([]Protocol{ProtoTCP, ProtoTRIM}, BufferAblationCaps(), opts)
	}))
