package experiment

import (
	"fmt"
	"io"
	"sort"
	"time"

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
	var cells []propertiesCell
	for _, p := range protos {
		cells = append(cells, propertiesCell{Protocol: p, Flows: 5, Trace: true, Seed: opts.seed()})
		for n := minFlows; n <= maxFlows; n++ {
			cells = append(cells, propertiesCell{Protocol: p, Flows: n, Seed: opts.seed()})
		}
	}
	results, err := sweep(opts, "fig9", cells, func(c propertiesCell, opts Options) (*propertiesOut, error) {
		return runPropertiesCell(c.Protocol, c.Flows, c.Trace, opts)
	})
	if err != nil {
		return nil, err
	}
	// CSV export runs on cold and warm cells alike: CSVDir is not part of
	// a cell's key.
	out := &PropertiesResult{QueueTrace: make(map[Protocol]*metrics.Series, len(protos))}
	for i, c := range cells {
		if !c.Trace {
			out.Rows = append(out.Rows, results[i].Row)
			continue
		}
		out.QueueTrace[c.Protocol] = results[i].Trace
		if err := saveSeriesCSV(opts, "fig9-queue-"+string(c.Protocol), "packets", results[i].Trace); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// propertiesCell is one (protocol, flows) cell, or with Trace the 5-flow
// queue trace of Fig. 9(a).
type propertiesCell struct {
	Protocol Protocol `json:"protocol"`
	Flows    int      `json:"flows"`
	Trace    bool     `json:"trace,omitempty"`
	Seed     int64    `json:"seed"`
}

func (c propertiesCell) String() string {
	if c.Trace {
		return fmt.Sprintf("%s/trace", c.Protocol)
	}
	return fmt.Sprintf("%s/%d-flows", c.Protocol, c.Flows)
}

// propertiesOut is what one cell keeps: the queue trace of a trace cell,
// the row of any other.
type propertiesOut struct {
	Row   PropertiesRow   `json:"row"`
	Trace *metrics.Series `json:"trace,omitempty"`
}

func runPropertiesCell(proto Protocol, flows int, trace bool, opts Options) (*propertiesOut, error) {
	rto := propShortRTO
	if trace {
		rto = impairmentRTO
	}
	lf, err := newLongFlows(opts, flows, 100, scenario{proto: proto, tcp: tcp.Config{MinRTO: rto}})
	if err != nil {
		return nil, err
	}
	goodput, err := lf.run()
	if err != nil {
		return nil, err
	}
	if trace {
		return &propertiesOut{Trace: lf.series}, nil
	}
	return &propertiesOut{Row: PropertiesRow{
		Protocol:    proto,
		Flows:       flows,
		AvgQueue:    lf.series.Mean(),
		MaxQueue:    int(lf.series.Max()),
		Drops:       lf.queue.Stats().Dropped,
		Timeouts:    lf.fleet.TotalTimeouts(),
		GoodputMbps: goodput / 1e6,
		Utilization: utilization(goodput),
	}}, nil
}

// longFlows is the Fig. 9 scenario the K, α, buffer and jitter sweeps
// share: one endless flow per sender on the 1 Gbps star from
// propFlowStart to propFlowStop, the bottleneck queue sampled every
// propSampleStep.
type longFlows struct {
	*scene
	queue  *netsim.Queue
	series *metrics.Series
}

// newLongFlows builds the scenario with flows senders, a switch buffer of
// buffer packets, and the rest of s.
func newLongFlows(opts Options, flows, buffer int, s scenario) (*longFlows, error) {
	s.servers, s.link = flows, topology.DefaultStarLink(buffer)
	sc, err := s.build(opts)
	if err != nil {
		return nil, err
	}
	if err := sc.background(0, flows, propFlowStart); err != nil {
		return nil, err
	}
	queue := sc.star.Bottleneck.Queue()
	series := metrics.Sample(sc.sched, sim.At(propFlowStart), sim.At(propFlowStop),
		propSampleStep, func() float64 { return float64(queue.Len()) })
	return &longFlows{sc, queue, series}, nil
}

// run simulates to propFlowStop and returns the goodput in bits per second
// over the flows' lifetime (nothing is delivered at the instant they
// start).
func (l *longFlows) run() (float64, error) {
	if err := l.scene.run(propFlowStop, 0, nil); err != nil {
		return 0, err
	}
	return float64(l.fleet.TotalDelivered()) * 8 / (propFlowStop - propFlowStart).Seconds(), nil
}

// utilization is payload goodput over the star's payload ceiling: the wire
// rate scaled by the MSS/wire-size efficiency.
func utilization(goodput float64) float64 {
	return goodput / (float64(netsim.Gbps) * netsim.MSS / (netsim.MSS + netsim.HeaderSize))
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
	tables(func(opts Options) (*PropertiesResult, error) {
		return RunProperties([]Protocol{ProtoTCP, ProtoTRIM}, 2, 10, opts)
	}))
