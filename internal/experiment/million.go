package experiment

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"tcptrim/internal/httpapp"
	"tcptrim/internal/hybrid"
	"tcptrim/internal/metrics"
	"tcptrim/internal/sim"
	"tcptrim/internal/tcp"
	"tcptrim/internal/topology"
)

// fig8million pushes the Fig. 8 scenario to the concurrency the paper
// motivates but could not simulate packet-by-packet: a front-end holding
// a million persistent HTTP connections (Section I's "tens of thousands
// of persistent connections per front-end" scaled to the modern figure).
// Each connection sends one short response inside the release window —
// exactly the highly concurrent one-off-train regime where blind window
// inheritance hurts — while a couple of long trains per ToR keep the
// tree loaded. The hybrid fidelity layer makes this tractable: idle
// connections live as flow-store records, and only the instantaneously
// ON population is materialized.
const (
	mlStart   = 100 * time.Millisecond
	mlRTO     = 20 * time.Millisecond
	mlMaxSegs = 4
)

// MillionConfig sizes a fig8million run.
type MillionConfig struct {
	// ToRs × ServersPerToR × ConnsPerServer is the connection count.
	ToRs           int
	ServersPerToR  int
	ConnsPerServer int
	// LPTsPerToR long trains run for the whole test (background load).
	LPTsPerToR int
	// Window is the release window for the short responses.
	Window time.Duration
	// Drain bounds how long after the window the run may keep going.
	Drain time.Duration
}

// MillionFull is the headline million-connection configuration:
// 25 ToRs × 40 servers × 1000 connections.
var MillionFull = MillionConfig{
	ToRs: 25, ServersPerToR: 40, ConnsPerServer: 1000,
	LPTsPerToR: 1, Window: 3 * time.Second, Drain: 2 * time.Second,
}

// MillionSmoke is the CI-sized configuration: 5 ToRs × 20 servers × 100
// connections (10k flows), small enough for a seconds-long smoke run.
var MillionSmoke = MillionConfig{
	ToRs: 5, ServersPerToR: 20, ConnsPerServer: 100,
	LPTsPerToR: 1, Window: 1 * time.Second, Drain: 2 * time.Second,
}

// Flows returns the scheduled short-response connection count.
func (c MillionConfig) Flows() int {
	return c.ToRs*c.ServersPerToR*c.ConnsPerServer - c.ToRs*c.LPTsPerToR*c.ConnsPerServer
}

// MillionRow is one protocol's outcome.
type MillionRow struct {
	Protocol  Protocol
	Scheduled int
	Completed int
	// ACT / P99 / P999 summarize the short-response completion times;
	// above the metrics sample cap they come from the bounded sketch.
	ACT  time.Duration
	P99  time.Duration
	P999 time.Duration
	// Sketched reports whether the FCT distribution crossed the sample
	// cap into the streaming sketch.
	Sketched bool
	// Timeouts counts RTO events across all connections.
	Timeouts int
	// PeakLive is the high-water mark of simultaneously materialized
	// connections — the knob the hybrid layer exists to bound.
	PeakLive int
	// ArenaCap is the sender arenas' total hot-state slot count.
	ArenaCap int
	// HeapBytes / BytesPerConn report heap footprint after the run (GC'd);
	// wall-clock and per-connection cost land in NsPerConn. These are
	// machine-dependent and excluded from the deterministic table.
	HeapBytes    uint64
	BytesPerConn float64
	NsPerConn    float64
	Wall         time.Duration
}

// MillionResult holds the fig8million outcome.
type MillionResult struct {
	Config MillionConfig
	Conns  int
	Rows   []MillionRow
}

// RunMillion executes the scenario once per protocol. Fidelity defaults
// to hybrid here (unlike the pinned figures, whose default is packet);
// packet fidelity is refused above 100k connections — materializing a
// million packet-level connections is exactly what this runner exists to
// avoid.
func RunMillion(protos []Protocol, cfg MillionConfig, opts Options) (*MillionResult, error) {
	fid := hybrid.FidelityHybrid
	if opts.Fidelity != "" {
		var err error
		if fid, err = opts.fidelity(); err != nil {
			return nil, err
		}
	}
	conns := cfg.ToRs * cfg.ServersPerToR * cfg.ConnsPerServer
	if err := CheckFidelityScale(fid, conns); err != nil {
		return nil, err
	}
	res := &MillionResult{Config: cfg, Conns: conns}
	ctr := opts.cells(len(protos))
	for _, proto := range protos {
		if err := opts.interrupted(); err != nil {
			return nil, err
		}
		row, err := runMillionOnce(proto, cfg, fid, opts)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, *row)
		ctr.finished(string(proto))
	}
	return res, nil
}

func runMillionOnce(proto Protocol, cfg MillionConfig, fid hybrid.Fidelity, opts Options) (*MillionRow, error) {
	start := time.Now()
	sc, err := scenario{
		tree:  &topology.TwoLevelTreeConfig{ToRs: cfg.ToRs, ServersPerToR: cfg.ServersPerToR},
		proto: proto, baseRTT: lsBaseRTT,
		tcp:  tcp.Config{MinRTO: mlRTO},
		seed: opts.seed(), fidelity: fid, connsPer: cfg.ConnsPerServer,
	}.build(opts)
	if err != nil {
		return nil, err
	}
	rng, fleet := sc.rng, sc.fleet

	// The first LPTsPerToR servers of each ToR dedicate all their
	// connections' hosts to background long trains (one per server);
	// every connection of the remaining servers sends one short train of
	// 1–4 segments at a uniform instant inside the window.
	var fct metrics.Distribution
	coll := &httpapp.Collector{}
	coll.StreamTo(&fct)
	opts.tapResponses(coll)
	row := &MillionRow{Protocol: proto}
	perServer := cfg.ConnsPerServer
	idx := 0
	for t := 0; t < cfg.ToRs; t++ {
		for s := 0; s < cfg.ServersPerToR; s++ {
			if s < cfg.LPTsPerToR {
				// One background train on the server's first connection;
				// its remaining conns stay idle forever (pure store load).
				if err := sc.background(idx*perServer, idx*perServer+1, mlStart); err != nil {
					return nil, err
				}
				idx++
				continue
			}
			for k := 0; k < perServer; k++ {
				i := idx*perServer + k
				at := sim.At(mlStart + time.Duration(rng.Int63n(int64(cfg.Window))))
				bytes := (1 + int(rng.Int63n(mlMaxSegs))) * tcp.DefaultMSS
				if err := fleet.ScheduleResponseAs(i, at, bytes, "pt", coll); err != nil {
					return nil, err
				}
				row.Scheduled++
			}
			idx++
		}
	}

	// Stop as soon as every short response completed.
	if err := sc.run(mlStart+cfg.Window+cfg.Drain, mlStart+cfg.Window, func() bool { return coll.Pending() == 0 }); err != nil {
		return nil, err
	}

	row.Completed = fct.Count()
	row.ACT = secondsToDuration(fct.Mean())
	row.P99 = secondsToDuration(fct.Percentile(99))
	row.P999 = secondsToDuration(fct.Percentile(99.9))
	row.Sketched = fct.Sketched()
	row.Timeouts = fleet.TotalTimeouts()
	if opts.Progress != nil {
		rb := fleet.Retransmissions()
		opts.publish(ProgressEvent{Kind: "retrans", Name: string(proto), Retrans: &rb})
		opts.publish(ProgressEvent{Kind: "fct", Name: string(proto), Dist: fct.Snapshot()})
	}
	row.PeakLive = fleet.PeakLive()
	row.ArenaCap = fleet.ArenaCap()
	row.Wall = time.Since(start)
	row.NsPerConn = float64(row.Wall.Nanoseconds()) / float64(fleet.NumFlows())
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	row.HeapBytes = ms.HeapAlloc
	row.BytesPerConn = float64(ms.HeapAlloc) / float64(fleet.NumFlows())
	return row, nil
}

// table is fig8million's deterministic outcome table.
func (r *MillionResult) table() *Table {
	t := &Table{
		Title: fmt.Sprintf("fig8million: %d persistent connections (%d ToRs × %d servers × %d conns)",
			r.Conns, r.Config.ToRs, r.Config.ServersPerToR, r.Config.ConnsPerServer),
		Header: []string{"protocol", "completed", "ACT", "P99", "P99.9", "timeouts", "peak live", "arena slots", "sketched"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			string(row.Protocol),
			fmt.Sprintf("%d/%d", row.Completed, row.Scheduled),
			row.ACT.Round(10 * time.Microsecond).String(),
			row.P99.Round(10 * time.Microsecond).String(),
			row.P999.Round(10 * time.Microsecond).String(),
			fmt.Sprintf("%d", row.Timeouts),
			fmt.Sprintf("%d", row.PeakLive),
			fmt.Sprintf("%d", row.ArenaCap),
			fmt.Sprintf("%t", row.Sketched),
		})
	}
	return t
}

// WriteTables renders fig8million: the deterministic outcome table, then
// a resource line (heap, wall clock) that varies by machine.
func (r *MillionResult) WriteTables(w io.Writer) error {
	if err := r.table().Write(w); err != nil {
		return err
	}
	for _, row := range r.Rows {
		if _, err := fmt.Fprintf(w, "%s resources: heap %.1f MB (%.0f B/conn), wall %v (%.0f ns/conn)\n",
			row.Protocol, float64(row.HeapBytes)/(1<<20), row.BytesPerConn,
			row.Wall.Round(time.Millisecond), row.NsPerConn); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// millionRunner renders fig8million at cfg. A cached run prints the table
// alone: a stored output is replayed by later processes, to which this
// one's heap and wall clock mean nothing.
func millionRunner(cfg MillionConfig) Runner {
	return func(opts Options, w io.Writer) error {
		res, err := RunMillion([]Protocol{ProtoTCP, ProtoTRIM}, cfg, opts)
		if err != nil {
			return err
		}
		if opts.Cache != nil {
			return res.table().Write(w)
		}
		return res.WriteTables(w)
	}
}

var _ = register("fig8million",
	"Million-connection Fig. 8-style release on the hybrid fidelity layer: 25 ToRs x 40 servers x 1000 conns",
	[]string{"fidelity"}, millionRunner(MillionFull))

var _ = register("fig8million-smoke",
	"CI slice of fig8million: 10k connections through the hybrid flow store",
	[]string{"fidelity"}, millionRunner(MillionSmoke))
