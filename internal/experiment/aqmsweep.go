package experiment

// aqmsweep: TRIM-vs-AQM interplay study. The paper argues TRIM's
// delay-based control needs no switch support, but leaves open how it
// interacts with switches that do run AQM — exactly the regime Briscoe &
// De Schepper show matters at data-center RTTs, where AQM alone cannot
// stop window-driven queue buildup. This sweep crosses {TCP, TRIM,
// DCTCP} × {DropTail, RED, CoDel, FavourQueue} × concurrency levels on
// the many-to-one star (short responses over two long background flows)
// and reports goodput, mean/99p flow completion time, and bottleneck
// queue occupancy, quantifying whether TRIM's end-host delay control is
// redundant, complementary, or harmful under each switch discipline.
// Every cell runs with the simulator's invariant checker armed, so an
// AQM packet-accounting bug (leaked or double-released head-drop) fails
// the sweep loudly.

import (
	"fmt"
	"io"
	"time"

	"tcptrim/internal/aqm"
	"tcptrim/internal/metrics"
	"tcptrim/internal/netsim"
	"tcptrim/internal/sim"
	"tcptrim/internal/tcp"
	"tcptrim/internal/topology"
	"tcptrim/internal/workload"
)

// Sweep scenario constants: the star again, with two long background
// flows building a standing queue under the short-response fleet.
const (
	asLPTs       = 2
	asRespServer = 60
	asRespMin    = 2 << 10
	asRespMax    = 10 << 10
	asRespMean   = 2 * time.Millisecond
	asStart      = 100 * time.Millisecond
	asDeadline   = 20 * time.Second
	asBuffer     = 100 // packets, the paper's switch buffer
	asECNThresh  = 20  // packets, DCTCP-style threshold for droptail/favour
	asCheckEvery = 5 * time.Millisecond
	asSampleStep = 100 * time.Microsecond
)

// AQMDiscipline names one switch configuration of the sweep. The
// disciplines carry DC-tuned parameters; RED and CoDel mark ECT packets
// (so DCTCP keeps its signal) and drop the rest.
type AQMDiscipline struct {
	Name string
	// Config builds the discipline for one cell; seed feeds RED's
	// uniformization draw so cells stay deterministic and independent.
	Config func(seed int64) aqm.Config
	// ECNThreshold is the instantaneous marking threshold in packets
	// (used by the threshold-marking disciplines; 0 = none).
	ECNThreshold int
}

// DefaultAQMDisciplines is the discipline axis of the sweep.
var DefaultAQMDisciplines = []AQMDiscipline{
	{
		Name:         "droptail",
		Config:       func(int64) aqm.Config { return aqm.Config{Kind: aqm.DropTail} },
		ECNThreshold: asECNThresh,
	},
	{
		Name: "red",
		Config: func(seed int64) aqm.Config {
			return aqm.Config{Kind: aqm.RED, RED: aqm.REDConfig{ECN: true, Seed: seed}}
		},
	},
	{
		Name: "codel",
		Config: func(int64) aqm.Config {
			return aqm.Config{Kind: aqm.CoDel, CoDel: aqm.CoDelConfig{ECN: true}}
		},
	},
	{
		Name:         "favour",
		Config:       func(int64) aqm.Config { return aqm.Config{Kind: aqm.FavourQueue} },
		ECNThreshold: asECNThresh,
	},
}

// AQMSweepProtocols is the default protocol axis.
var AQMSweepProtocols = []Protocol{ProtoTCP, ProtoTRIM, ProtoDCTCP}

// AQMSweepConcurrency is the default concurrency axis: short-flow servers
// sharing the bottleneck with the two background flows.
var AQMSweepConcurrency = []int{10, 40, 120}

// AQMSweepRow is one (protocol, discipline, concurrency) cell.
type AQMSweepRow struct {
	Protocol   Protocol
	Discipline string
	// Concurrency is the number of short-flow servers (the star also
	// carries two long background flows).
	Concurrency int
	// GoodputMbps is aggregate delivered goodput from the workload start
	// until the last short response completed (or the deadline).
	GoodputMbps float64
	// MeanFCT / P99FCT summarize short-response completion times.
	MeanFCT, P99FCT time.Duration
	// AvgQueue / MaxQueue are the bottleneck queue occupancy in packets.
	AvgQueue float64
	MaxQueue int
	// Queue is the bottleneck's drop/mark ledger (tail vs AQM early vs
	// AQM head drops).
	Queue netsim.QueueStats
	// AQM is the bottleneck discipline's own counters.
	AQM      aqm.Stats
	Timeouts int
	Complete int
	Total    int
}

// AQMSweepResult holds the full cross.
type AQMSweepResult struct {
	Rows []AQMSweepRow
}

// aqmCell is one coordinate of the sweep; the discipline is keyed by name.
type aqmCell struct {
	Protocol    Protocol `json:"protocol"`
	Discipline  string   `json:"discipline"`
	Concurrency int      `json:"concurrency"`
	Seed        int64    `json:"seed"`
	disc        AQMDiscipline
}

func (c aqmCell) String() string {
	return fmt.Sprintf("%s/%s/%d-conns", c.Protocol, c.Discipline, c.Concurrency)
}

// RunAQMSweep crosses protocols × disciplines × concurrency levels, one
// independent simulation per cell, each seeded via SplitSeed so the
// matrix is byte-identical regardless of worker count.
func RunAQMSweep(protos []Protocol, discs []AQMDiscipline, concs []int, opts Options) (*AQMSweepResult, error) {
	var cells []aqmCell
	for _, p := range protos {
		for _, d := range discs {
			for _, c := range concs {
				cells = append(cells, aqmCell{p, d.Name, c, SplitSeed(opts.seed(), len(cells)), d})
			}
		}
	}
	rows, err := sweep(opts, "aqmsweep", cells, func(c aqmCell, opts Options) (*AQMSweepRow, error) {
		return runAQMSweepCell(c.Protocol, c.disc, c.Concurrency, c.Seed, opts)
	})
	if err != nil {
		return nil, err
	}
	return &AQMSweepResult{Rows: rows}, nil
}

func runAQMSweepCell(proto Protocol, disc AQMDiscipline, conc int, seed int64, opts Options) (*AQMSweepRow, error) {
	link := topology.DefaultStarLink(asBuffer)
	link.Queue.ECNThresholdPackets = disc.ECNThreshold
	link.Queue.AQM = disc.Config(SplitSeed(seed, 1))
	sc, err := scenario{
		servers: asLPTs + conc, link: link,
		proto: proto, baseRTT: ksBaseRTT,
		tcp:  tcp.Config{MinRTO: 10 * time.Millisecond, SACK: true},
		seed: seed, checkEvery: asCheckEvery, drainEvery: time.Millisecond,
	}.build(opts)
	if err != nil {
		return nil, err
	}
	fleet, sched := sc.fleet, sc.sched
	var d metrics.Distribution
	fleet.Collector().StreamTo(&d)
	// Two endless background flows keep a standing queue under the short
	// responses for the whole measurement.
	if err := sc.background(0, asLPTs, asStart); err != nil {
		return nil, err
	}
	if err := sc.responses(asLPTs, asLPTs+conc, asStart, asRespServer,
		workload.UniformSize{Min: asRespMin, Max: asRespMax},
		workload.ExponentialGap{Mean: asRespMean}); err != nil {
		return nil, err
	}

	// Bottleneck occupancy, and goodput over [asStart, last completion].
	queue := sc.star.Bottleneck.Queue()
	occupancy := metrics.Sample(sched, sim.At(asStart), sim.At(asDeadline),
		asSampleStep, func() float64 { return float64(queue.Len()) })
	var startBytes int64
	if _, err := sched.At(sim.At(asStart), func() { startBytes = fleet.TotalDelivered() }); err != nil {
		return nil, err
	}
	// Stop once every short response completed; the background flows
	// would otherwise run to the deadline for nothing.
	var doneAt sim.Time
	var doneBytes int64
	if err := sc.run(asDeadline, asStart+time.Millisecond, func() bool {
		if fleet.Collector().Pending() > 0 {
			return false
		}
		doneAt, doneBytes = sched.Now(), fleet.TotalDelivered()
		return true
	}); err != nil {
		return nil, err
	}
	if doneAt == 0 {
		doneAt, doneBytes = sched.Now(), fleet.TotalDelivered()
	}

	row := &AQMSweepRow{
		Protocol:    proto,
		Discipline:  disc.Name,
		Concurrency: conc,
		Total:       conc * asRespServer,
		Complete:    d.Count(),
		AvgQueue:    occupancy.Mean(),
		MaxQueue:    int(occupancy.Max()),
		Queue:       queue.Stats(),
		AQM:         queue.AQMStats(),
		Timeouts:    fleet.TotalTimeouts(),
	}
	if window := doneAt.Sub(sim.At(asStart)).Seconds(); window > 0 {
		row.GoodputMbps = float64(doneBytes-startBytes) * 8 / window / 1e6
	}
	if d.Count() > 0 {
		row.MeanFCT = secondsToDuration(d.Mean())
		row.P99FCT = secondsToDuration(d.Percentile(99))
	}
	return row, nil
}

// WriteTables renders the sweep with the drop ledger split by cause.
func (r *AQMSweepResult) WriteTables(w io.Writer) error {
	t := &Table{
		Title: "Extension: TRIM-vs-AQM interplay sweep",
		Header: []string{"protocol", "aqm", "conc", "goodput", "mean FCT", "99p FCT",
			"avg q", "max q", "tail", "early", "head", "marks", "favoured",
			"timeouts", "completed"},
		Caption: "short-response FCT over 2 background flows on the 1 Gbps star; " +
			"drops split by cause: tail (buffer full), early (RED), head (CoDel)",
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			string(row.Protocol),
			row.Discipline,
			fmt.Sprintf("%d", row.Concurrency),
			fmt.Sprintf("%.1f Mbps", row.GoodputMbps),
			row.MeanFCT.Round(10 * time.Microsecond).String(),
			row.P99FCT.Round(10 * time.Microsecond).String(),
			fmt.Sprintf("%.1f", row.AvgQueue),
			fmt.Sprintf("%d", row.MaxQueue),
			fmt.Sprintf("%d", row.Queue.TailDrops),
			fmt.Sprintf("%d", row.Queue.EarlyDrops),
			fmt.Sprintf("%d", row.Queue.HeadDrops),
			fmt.Sprintf("%d", row.Queue.Marked),
			fmt.Sprintf("%d", row.AQM.Favoured),
			fmt.Sprintf("%d", row.Timeouts),
			fmt.Sprintf("%d/%d", row.Complete, row.Total),
		})
	}
	return t.Write(w)
}

var _ = register("aqmsweep",
	"TRIM-vs-AQM interplay: protocol x discipline x concurrency, FCT/goodput/drop split",
	nil,
	tables(func(opts Options) (*AQMSweepResult, error) {
		return RunAQMSweep(AQMSweepProtocols, DefaultAQMDisciplines, AQMSweepConcurrency, opts)
	}))

// aqmsweep-smoke is the CI slice: one protocol, every discipline, lowest
// concurrency, fast enough for every push.
var _ = register("aqmsweep-smoke",
	"CI slice of aqmsweep: one protocol, every discipline, lowest concurrency",
	nil,
	tables(func(opts Options) (*AQMSweepResult, error) {
		return RunAQMSweep([]Protocol{ProtoTRIM}, DefaultAQMDisciplines,
			AQMSweepConcurrency[:1], opts)
	}))
