package experiment

// resilience: fault-injection matrix. The paper evaluates TCP-TRIM under
// congestion only; this extension stresses TCP, TCP-TRIM, and DCTCP with
// correlated data-center failures — Gilbert–Elliott bursty loss, link
// flaps, bounded reordering, and packet duplication — injected on the
// star's bottleneck during a fixed fault window. Each cell reports goodput
// retention inside the window (relative to the same protocol's fault-free
// baseline), loss-recovery effort, and how long the fleet needs to drain
// its backlog once the last fault clears. Every cell runs with the
// simulator's invariant checker armed, so a fault-layer accounting bug
// (leaked or double-released packet, queue over bound) fails the
// experiment loudly instead of skewing the numbers.

import (
	"fmt"
	"io"
	"time"

	"tcptrim/internal/httpapp"
	"tcptrim/internal/netsim"
	"tcptrim/internal/sim"
	"tcptrim/internal/tcp"
	"tcptrim/internal/topology"
	"tcptrim/internal/workload"
)

// FaultIntensity bundles one named level of injected faults. The zero
// value (all fields off) is a clean baseline.
type FaultIntensity struct {
	Name string
	// GE is the bursty-loss channel applied during the fault window.
	GE netsim.GEConfig
	// FlapCount outages of FlapDown each, FlapUp apart, inside the window.
	FlapCount int
	FlapDown  time.Duration
	FlapUp    time.Duration
	// ReorderProb of packets arrive up to ReorderExtra late (out of order).
	ReorderProb  float64
	ReorderExtra time.Duration
	// DupProb of packets arrive twice.
	DupProb float64
}

// clean reports whether the intensity injects nothing (a baseline cell).
func (fi FaultIntensity) clean() bool {
	return !fi.GE.Enabled() && fi.FlapCount == 0 && fi.ReorderProb == 0 && fi.DupProb == 0
}

// DefaultFaultIntensities is the ladder the resilience experiment sweeps.
// GE stationary loss rates: mild ≈ 0.7%, moderate ≈ 4.5%, severe ≈ 20%,
// with mean burst lengths of 5, 10, and 20 packets respectively.
var DefaultFaultIntensities = []FaultIntensity{
	{Name: "none"},
	{
		Name:         "mild",
		GE:           netsim.GEConfig{PGoodBad: 0.005, PBadGood: 0.2, LossBad: 0.3},
		ReorderProb:  0.02,
		ReorderExtra: 100 * time.Microsecond,
		DupProb:      0.01,
	},
	{
		Name:         "moderate",
		GE:           netsim.GEConfig{PGoodBad: 0.01, PBadGood: 0.1, LossBad: 0.5},
		FlapCount:    1,
		FlapDown:     20 * time.Millisecond,
		FlapUp:       100 * time.Millisecond,
		ReorderProb:  0.05,
		ReorderExtra: 200 * time.Microsecond,
		DupProb:      0.02,
	},
	{
		Name:         "severe",
		GE:           netsim.GEConfig{PGoodBad: 0.02, PBadGood: 0.05, LossBad: 0.7},
		FlapCount:    3,
		FlapDown:     40 * time.Millisecond,
		FlapUp:       150 * time.Millisecond,
		ReorderProb:  0.1,
		ReorderExtra: 500 * time.Microsecond,
		DupProb:      0.05,
	},
}

// ResilienceProtocols are the matrix's default protocol axis.
var ResilienceProtocols = []Protocol{ProtoTCP, ProtoTRIM, ProtoDCTCP}

// ResilienceRow is one (protocol, intensity) cell.
type ResilienceRow struct {
	Protocol  Protocol
	Intensity string
	// WindowMbps is the fleet goodput measured inside the fault window;
	// Retention is WindowMbps relative to the protocol's clean baseline
	// (negative when no baseline cell ran).
	WindowMbps float64
	Retention  float64
	Timeouts   int
	Retrans    int
	// RecoveryTime is how long after the fault window the last response
	// completed (0 if the backlog drained inside the window; negative if
	// responses never completed).
	RecoveryTime time.Duration
	Complete     int
	Total        int
	// Injected separates fault-layer drops/mutations (bottleneck pipe
	// counters) from CongestionDrops (the bottleneck queue's drops:
	// tail, AQM early, and AQM head — split in QueueStats).
	Injected        netsim.PipeStats
	CongestionDrops int
	// QueueStats carries the drop split by cause for the bottleneck.
	QueueStats netsim.QueueStats
}

// ResilienceResult holds the matrix.
type ResilienceResult struct {
	Rows []ResilienceRow
	// FaultWindow documents the injection interval used by every cell.
	FaultStart, FaultEnd time.Duration
}

// Resilience scenario constants: the Fig. 4-style star with an ON/OFF
// response workload shaped to keep the bottleneck busy across the whole
// fault window.
const (
	rsServers    = 3
	rsPerServer  = 250
	rsFaultStart = 200 * time.Millisecond
	rsFaultEnd   = 1200 * time.Millisecond
	rsDeadline   = 30 * time.Second
	rsCheckEvery = 5 * time.Millisecond
)

// resilienceCell is one coordinate of the matrix. AQM is the raw option
// string ("" = the scenario's default drop-tail switch) and Recovery the
// canonical policy name ("" = the fleet default): both tell "unset" from an
// explicit selection, because the explicit forms change wiring (ECN
// thresholds, the T-RACKs agent) even when they name the default behavior.
type resilienceCell struct {
	Protocol  Protocol       `json:"protocol"`
	Intensity FaultIntensity `json:"intensity"`
	AQM       string         `json:"aqm,omitempty"`
	Recovery  string         `json:"recovery,omitempty"`
	Seed      int64          `json:"seed"`
}

func (c resilienceCell) String() string { return fmt.Sprintf("%s/%s", c.Protocol, c.Intensity.Name) }

// RunResilience sweeps protocols × intensities, one independent simulation
// per cell, each seeded via SplitSeed so the matrix is byte-identical
// regardless of worker count.
func RunResilience(protos []Protocol, intensities []FaultIntensity, opts Options) (*ResilienceResult, error) {
	if _, _, err := opts.aqmOverride(); err != nil {
		return nil, err
	}
	recovery, _, err := opts.recoveryOverride()
	if err != nil {
		return nil, err
	}
	var cells []resilienceCell
	for _, p := range protos {
		for _, fi := range intensities {
			cells = append(cells, resilienceCell{p, fi, opts.AQM, recovery, SplitSeed(opts.seed(), len(cells))})
		}
	}
	// Retention is derived below from the full row set, so a stored cell
	// carries it unset and warm runs recompute it exactly.
	rows, err := sweep(opts, "resilience", cells, func(c resilienceCell, opts Options) (*ResilienceRow, error) {
		return runResilienceCell(c, opts)
	})
	if err != nil {
		return nil, err
	}
	// Baseline goodput per protocol (a clean cell, if the sweep has one).
	baseline := map[Protocol]float64{}
	for i, r := range rows {
		if cells[i].Intensity.clean() {
			baseline[r.Protocol] = r.WindowMbps
		}
	}
	for i := range rows {
		r := &rows[i]
		if base, ok := baseline[r.Protocol]; ok && base > 0 {
			r.Retention = r.WindowMbps / base
		} else {
			r.Retention = -1
		}
	}
	return &ResilienceResult{Rows: rows, FaultStart: rsFaultStart, FaultEnd: rsFaultEnd}, nil
}

func runResilienceCell(c resilienceCell, opts Options) (*ResilienceRow, error) {
	proto, fi, seed := c.Protocol, c.Intensity, c.Seed
	link := topology.DefaultStarLink(100)
	link.Queue.ECNThresholdPackets = 20
	sc, err := scenario{
		servers: rsServers, link: link,
		proto: proto, baseRTT: ksBaseRTT,
		tcp: tcp.Config{MinRTO: 10 * time.Millisecond, SACK: true},
		aqm: c.AQM, recovery: c.Recovery,
		seed: seed, checkEvery: rsCheckEvery,
	}.build(opts)
	if err != nil {
		return nil, err
	}
	fleet := sc.fleet
	// The row reads the count and the last completion only.
	fleet.Collector().StreamTo(nil)
	if err := sc.responses(0, rsServers, 100*time.Millisecond, rsPerServer,
		workload.UniformSize{Min: 8 << 10, Max: 64 << 10},
		workload.ExponentialGap{Mean: 4 * time.Millisecond}); err != nil {
		return nil, err
	}

	bn := sc.star.Bottleneck
	window, err := injectFaults(sc.simEnv, bn, fi, seed, fleet.TotalDelivered)
	if err != nil {
		return nil, err
	}
	if err := sc.run(rsDeadline, 0, nil); err != nil {
		return nil, err
	}

	return &ResilienceRow{
		Protocol:        proto,
		Intensity:       fi.Name,
		Total:           rsServers * rsPerServer,
		WindowMbps:      window.mbps(),
		Timeouts:        fleet.TotalTimeouts(),
		Retrans:         fleet.Retransmissions().Total,
		Complete:        fleet.Collector().Count(),
		RecoveryTime:    recoveryTime(fleet.Collector(), rsServers*rsPerServer),
		Injected:        bn.Stats(),
		QueueStats:      bn.Queue().Stats(),
		CongestionDrops: bn.Queue().Stats().Dropped,
	}, nil
}

// faultWindow holds the bytes delivered at the edges of the fault window.
type faultWindow struct{ atStart, atEnd int64 }

// mbps is the goodput inside the window.
func (w *faultWindow) mbps() float64 {
	return float64(w.atEnd-w.atStart) * 8 / (rsFaultEnd - rsFaultStart).Seconds() / 1e6
}

// injectFaults arms fi on the bottleneck bn for the fault window
// [rsFaultStart, rsFaultEnd), flaps included, and then snapshots
// delivered at the window's edges. Each injector draws from its own
// SplitSeed stream of seed, a source of env's, so adding one fault never
// perturbs another's draws.
func injectFaults(env *simEnv, bn *netsim.Pipe, fi FaultIntensity, seed int64, delivered func() int64) (*faultWindow, error) {
	sched := env.sched
	if _, err := sched.At(sim.At(rsFaultStart), func() {
		if fi.GE.Enabled() {
			bn.InjectGilbertElliott(fi.GE, env.rand(SplitSeed(seed, 1)))
		}
		if fi.ReorderProb > 0 {
			bn.InjectReorder(fi.ReorderProb, fi.ReorderExtra, env.rand(SplitSeed(seed, 2)))
		}
		if fi.DupProb > 0 {
			bn.InjectDuplicate(fi.DupProb, env.rand(SplitSeed(seed, 3)))
		}
	}); err != nil {
		return nil, err
	}
	if _, err := sched.At(sim.At(rsFaultEnd), func() {
		bn.InjectGilbertElliott(netsim.GEConfig{}, nil)
		bn.InjectReorder(0, 0, nil)
		bn.InjectDuplicate(0, nil)
	}); err != nil {
		return nil, err
	}
	if fi.FlapCount > 0 {
		if err := bn.ScheduleFlaps(netsim.FlapConfig{
			FirstDownAt: sim.At(rsFaultStart + 50*time.Millisecond),
			DownFor:     fi.FlapDown,
			UpFor:       fi.FlapUp,
			Count:       fi.FlapCount,
		}); err != nil {
			return nil, err
		}
	}
	w := &faultWindow{}
	if _, err := sched.At(sim.At(rsFaultStart), func() { w.atStart = delivered() }); err != nil {
		return nil, err
	}
	if _, err := sched.At(sim.At(rsFaultEnd), func() { w.atEnd = delivered() }); err != nil {
		return nil, err
	}
	return w, nil
}

// recoveryTime is how long past the fault window the last of total
// responses completed: 0 if the backlog drained inside the window,
// negative if some never completed.
func recoveryTime(coll *httpapp.Collector, total int) time.Duration {
	switch {
	case coll.Count() < total:
		return -1
	case coll.Last() > sim.At(rsFaultEnd):
		return coll.Last().Sub(sim.At(rsFaultEnd))
	}
	return 0
}

// WriteTables renders the matrix with injected-fault drops reported
// separately from congestion (tail) drops.
func (r *ResilienceResult) WriteTables(w io.Writer) error {
	t := &Table{
		Title: "Extension: resilience under injected faults",
		Header: []string{"protocol", "faults", "goodput", "retention", "timeouts",
			"retrans", "recovery", "inj burst", "inj flap", "inj reord", "inj dup",
			"cong drops", "completed"},
		Caption: fmt.Sprintf("goodput measured inside the fault window [%v, %v); "+
			"injected counters are fault-layer events on the bottleneck, distinct from congestion tail drops",
			r.FaultStart, r.FaultEnd),
	}
	for _, row := range r.Rows {
		retention := "-"
		if row.Retention >= 0 {
			retention = fmt.Sprintf("%.1f%%", 100*row.Retention)
		}
		recovery := row.RecoveryTime.Round(100 * time.Microsecond).String()
		if row.RecoveryTime < 0 {
			recovery = "never"
		}
		// Congestion drops split by cause when an AQM actually acted;
		// the plain total otherwise (historical format).
		cong := fmt.Sprintf("%d", row.CongestionDrops)
		if q := row.QueueStats; q.EarlyDrops > 0 || q.HeadDrops > 0 {
			cong = fmt.Sprintf("%d(%dt/%de/%dh)",
				row.CongestionDrops, q.TailDrops, q.EarlyDrops, q.HeadDrops)
		}
		t.Rows = append(t.Rows, []string{
			string(row.Protocol),
			row.Intensity,
			fmt.Sprintf("%.1f Mbps", row.WindowMbps),
			retention,
			fmt.Sprintf("%d", row.Timeouts),
			fmt.Sprintf("%d", row.Retrans),
			recovery,
			fmt.Sprintf("%d", row.Injected.BurstLossDrops),
			fmt.Sprintf("%d", row.Injected.FlapDrops),
			fmt.Sprintf("%d", row.Injected.Reordered),
			fmt.Sprintf("%d", row.Injected.Duplicated),
			cong,
			fmt.Sprintf("%d/%d", row.Complete, row.Total),
		})
	}
	return t.Write(w)
}

var _ = register("resilience",
	"Fault-injection matrix: protocol x fault intensity, goodput retention and recovery time",
	[]string{"aqm", "recovery"},
	tables(func(opts Options) (*ResilienceResult, error) {
		return RunResilience(ResilienceProtocols, DefaultFaultIntensities, opts)
	}))

// resilience-smoke is the CI chaos check: one protocol, clean + mild, fast
// enough for every push.
var _ = register("resilience-smoke",
	"CI slice of resilience: one protocol, clean + mild faults",
	[]string{"aqm", "recovery"},
	tables(func(opts Options) (*ResilienceResult, error) {
		return RunResilience([]Protocol{ProtoTRIM}, DefaultFaultIntensities[:2], opts)
	}))
