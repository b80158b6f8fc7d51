package experiment

import (
	"fmt"
	"io"
	"sort"
	"time"

	"tcptrim/internal/httpapp"
	"tcptrim/internal/metrics"
	"tcptrim/internal/netsim"
	"tcptrim/internal/sim"
	"tcptrim/internal/tcp"
	"tcptrim/internal/topology"
)

// Fig. 9 scenario: long flows through the 100-packet star bottleneck.
// (a) queue trace with 5 flows from 0.1 s to 0.9 s; (b)(c) average queue
// length and drops for 2–10 concurrent flows with a 1 ms RTO ("to avoid
// the impact of TCP timeout"); (d) bottleneck goodput.
const (
	propFlowStart  = 100 * time.Millisecond
	propFlowStop   = 900 * time.Millisecond
	propShortRTO   = time.Millisecond
	propSampleStep = 100 * time.Microsecond
)

// PropertiesRow is one (protocol, flows) cell of Fig. 9(b)–(d).
type PropertiesRow struct {
	Protocol    Protocol
	Flows       int
	AvgQueue    float64 // packets
	MaxQueue    int
	Drops       int
	Timeouts    int
	GoodputMbps float64
	Utilization float64
}

// PropertiesResult aggregates the Fig. 9 outputs.
type PropertiesResult struct {
	// QueueTrace is the 5-flow bottleneck queue trace per protocol
	// (Fig. 9(a)), sampled every 100 µs.
	QueueTrace map[Protocol]*metrics.Series
	// Rows sweep 2–10 concurrent flows per protocol (Fig. 9(b)–(d)).
	Rows []PropertiesRow
}

// Row returns the cell for (proto, flows), or nil.
func (r *PropertiesResult) Row(proto Protocol, flows int) *PropertiesRow {
	for i := range r.Rows {
		if r.Rows[i].Protocol == proto && r.Rows[i].Flows == flows {
			return &r.Rows[i]
		}
	}
	return nil
}

// RunProperties executes the Fig. 9 scenarios for the given protocols
// (the paper compares TCP and TCP-TRIM). Alpha, if nonzero, overrides
// TCP-TRIM's smoothing weight (used by the abl-alpha ablation).
func RunProperties(protos []Protocol, minFlows, maxFlows int, opts Options) (*PropertiesResult, error) {
	for _, p := range protos {
		if _, err := NewCC(p); err != nil {
			return nil, err
		}
	}
	out := &PropertiesResult{QueueTrace: make(map[Protocol]*metrics.Series, len(protos))}

	type cell struct {
		proto Protocol
		flows int
		trace bool
	}
	var cells []cell
	for _, p := range protos {
		cells = append(cells, cell{proto: p, flows: 5, trace: true})
		for n := minFlows; n <= maxFlows; n++ {
			cells = append(cells, cell{proto: p, flows: n})
		}
	}
	type propCell struct {
		row   *PropertiesRow
		trace *metrics.Series
	}
	results, err := RunTrials(len(cells), func(i int) (propCell, error) {
		row, trace, err := runPropertiesCell(cells[i].proto, cells[i].flows, cells[i].trace, opts)
		return propCell{row: row, trace: trace}, err
	})
	if err != nil {
		return nil, err
	}
	for i, c := range cells {
		if c.trace {
			out.QueueTrace[c.proto] = results[i].trace
			name := "fig9-queue-" + string(c.proto)
			if err := saveSeriesCSV(opts, name, "packets", results[i].trace); err != nil {
				return nil, err
			}
			continue
		}
		out.Rows = append(out.Rows, *results[i].row)
	}
	return out, nil
}

func runPropertiesCell(proto Protocol, flows int, trace bool, opts Options) (*PropertiesRow, *metrics.Series, error) {
	env := newSimEnv(opts)
	sched := env.sched
	star := topology.NewStar(sched, flows, topology.DefaultStarLink(100))
	rto := propShortRTO
	if trace {
		rto = impairmentRTO
	}
	fleet, err := httpapp.NewFleet(star.Net, httpapp.FleetConfig{
		Senders:  star.Senders,
		FrontEnd: star.FrontEnd,
		NewCC:    func() tcp.CongestionControl { return MustCC(proto) },
		Base: tcp.Config{
			MinRTO:   rto,
			ECN:      UsesECN(proto),
			LinkRate: netsim.Gbps,
		},
	})
	if err != nil {
		return nil, nil, err
	}
	for _, srv := range fleet.Servers {
		if err := srv.StartBackgroundFlow(sim.At(propFlowStart), concBackground); err != nil {
			return nil, nil, err
		}
	}
	queue := star.Bottleneck.Queue()
	series := metrics.Sample(sched, sim.At(propFlowStart), sim.At(propFlowStop),
		propSampleStep, func() float64 { return float64(queue.Len()) })

	var startBytes int64
	if _, err := sched.At(sim.At(propFlowStart), func() { startBytes = fleet.TotalDelivered() }); err != nil {
		return nil, nil, err
	}
	if err := env.runUntil(sim.At(propFlowStop)); err != nil {
		return nil, nil, err
	}

	window := propFlowStop - propFlowStart
	deliveredBits := float64(fleet.TotalDelivered()-startBytes) * 8
	goodput := deliveredBits / window.Seconds()
	row := &PropertiesRow{
		Protocol:    proto,
		Flows:       flows,
		AvgQueue:    series.Mean(),
		MaxQueue:    int(series.Max()),
		Drops:       queue.Stats().Dropped,
		Timeouts:    fleet.TotalTimeouts(),
		GoodputMbps: goodput / 1e6,
		// Payload-bytes utilization: the wire ceiling is scaled by the
		// MSS/wire-size efficiency.
		Utilization: goodput / (float64(netsim.Gbps) * netsim.MSS / (netsim.MSS + netsim.HeaderSize)),
	}
	return row, series, nil
}

// WriteTables renders the Fig. 9 outputs.
func (r *PropertiesResult) WriteTables(w io.Writer) error {
	// Iterate traces in sorted protocol order: map iteration order would
	// make the rendered output nondeterministic across runs, which breaks
	// byte-identical verification and content-addressed result caching.
	protos := make([]Protocol, 0, len(r.QueueTrace))
	for proto := range r.QueueTrace {
		protos = append(protos, proto)
	}
	sort.Slice(protos, func(i, j int) bool { return protos[i] < protos[j] })
	for _, proto := range protos {
		trace := r.QueueTrace[proto]
		t := &Table{
			Title:  fmt.Sprintf("Fig. 9(a) queue behaviour with 5 long flows (%s)", proto),
			Header: []string{"metric", "packets"},
			Rows: [][]string{
				{"mean queue", fmt.Sprintf("%.1f", trace.Mean())},
				{"max queue", fmt.Sprintf("%.0f", trace.Max())},
			},
		}
		if err := t.Write(w); err != nil {
			return err
		}
	}
	t := &Table{
		Title: "Fig. 9(b)-(d): queue, drops, goodput vs concurrent flows",
		Header: []string{"protocol", "flows", "avg queue", "max queue", "drops",
			"timeouts", "goodput (Mbps)", "utilization"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			string(row.Protocol),
			fmt.Sprintf("%d", row.Flows),
			fmt.Sprintf("%.1f", row.AvgQueue),
			fmt.Sprintf("%d", row.MaxQueue),
			fmt.Sprintf("%d", row.Drops),
			fmt.Sprintf("%d", row.Timeouts),
			fmt.Sprintf("%.0f", row.GoodputMbps),
			fmt.Sprintf("%.3f", row.Utilization),
		})
	}
	return t.Write(w)
}

var _ = register("fig9",
	"TRIM properties: queue behaviour with long flows, and queue/drops/goodput vs flow count (Fig. 9)",
	[]string{"csv"},
	func(opts Options, w io.Writer) error {
		res, err := RunProperties([]Protocol{ProtoTCP, ProtoTRIM}, 2, 10, opts)
		if err != nil {
			return err
		}
		return res.WriteTables(w)
	})
