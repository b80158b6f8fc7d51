package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"time"

	"tcptrim/internal/cellcache"
	"tcptrim/internal/experiment"
)

// runConfig is what a workload is built from: the seed is the only input
// that varies between runs of one workload.
type runConfig struct {
	seed  int64
	quick bool
	tr    *tracer
}

// iterResult is the outcome of one iteration: every iteration of a run
// does byte-identical simulated work, so ops and digest must repeat.
type iterResult struct {
	ops    int    // operations attempted
	failed int    // operations that failed
	digest string // hash of the deterministic results
	// opErr is the first error behind a failed operation, for the log.
	opErr error
	// cleanup, when set, runs after the clock has stopped.
	cleanup func()
}

// instance is one prepared workload.
type instance interface {
	// iterate runs one pass and calls lap after each part of it that is
	// timed on its own (the same parts in the same order every time);
	// parent is the harness span that caused the pass.
	iterate(parent int, lap func()) (iterResult, error)
	close() error
}

// workloadDef names a workload and says how to prepare it.
type workloadDef struct {
	name  string
	why   string
	procs int // GOMAXPROCS while it runs
	// iters is the number of timed iterations of a run of runSeconds,
	// sized once on the reference box so that they take about that long.
	iters int
	open  func(cfg runConfig) (instance, error)
}

var workloads = []workloadDef{
	{
		name:  "tree_packet",
		why:   "Fig. 8 tree, 5+10 ToRs, TCP-TRIM at packet fidelity: sim, netsim, tcp and core do the work; hybrid passes through, the caches are idle",
		procs: 1,
		iters: 18,
		open:  openTreePacket,
	},
	{
		name:  "million_hybrid",
		why:   "fig8million at 40k connections, hybrid fidelity: same tree and transport, but the flow store, epoch sweep and memory per connection dominate",
		procs: 1,
		iters: 12,
		open:  openMillionHybrid,
	},
	{
		name:  "sweep_cold",
		why:   "faulted-star sweeps into a fresh on-disk cell cache: AQM, recovery timers, retransmissions, the RunTrials fan-out and the write side of cellcache",
		procs: 2,
		iters: 16,
		open:  openSweepCold,
	},
	{
		// One processor although the service and its two clients could use
		// two: alternating runs of one binary spread 21 % over eight seeds
		// at 2 and 9 % at 1 (bench/README.md); on the 2-vCPU guest a
		// hand-over between vCPUs waits on the host's scheduler.
		name:  "cache_warm",
		why:   "trimsvc round trips and re-run sweeps answered from the caches, nothing simulated: the read side of cellcache and experiment, plus service, SSE and JSON",
		procs: 1,
		iters: 24,
		open:  openCacheWarm,
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// digestOf hashes the printed form of deterministic results.
func digestOf(parts ...any) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%+v\n", p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ---- tree_packet ----

// treePacket is the paper's Fig. 8 tree at packet fidelity. Plain TCP is
// left to the layer drivers: on this tree it loses short responses to the
// lone-tail stall on about half of all seeds (ROADMAP item 4), which the
// benchmark would have to report as failed operations, and a stalled
// cell runs to the 3 s horizon and takes four times as long.
type treePacket struct {
	cfg  runConfig
	tors []int
}

func openTreePacket(cfg runConfig) (instance, error) {
	w := &treePacket{cfg: cfg, tors: []int{5, 10}}
	if cfg.quick {
		w.tors = []int{1}
	}
	return w, nil
}

func (w *treePacket) iterate(parent int, lap func()) (iterResult, error) {
	var out iterResult
	var rows []experiment.LargeScaleRow
	for _, tors := range w.tors { // one tree size per call, one call per part
		_, end := w.cfg.tr.start(w.cfg.tr.newTrace(), parent, "experiment.RunLargeScale")
		res, err := experiment.RunLargeScale([]experiment.Protocol{experiment.ProtoTRIM}, []int{tors},
			experiment.Options{Seed: w.cfg.seed, Reps: 1})
		end()
		lap()
		if err != nil {
			return out, err
		}
		rows = append(rows, res.Rows...)
	}
	for _, row := range rows {
		out.ops += row.Scheduled
		out.failed += row.Scheduled - row.Completed
	}
	out.digest = digestOf(rows)
	return out, nil
}

func (w *treePacket) close() error { return nil }

// ---- million_hybrid ----

// millionSize is fig8million cut to 40k connections.
var millionSize = experiment.MillionConfig{
	ToRs: 10, ServersPerToR: 20, ConnsPerServer: 200,
	LPTsPerToR: 1, Window: time.Second, Drain: 2 * time.Second,
}

type millionHybrid struct {
	cfg  runConfig
	size experiment.MillionConfig
}

func openMillionHybrid(cfg runConfig) (instance, error) {
	w := &millionHybrid{cfg: cfg, size: millionSize}
	if cfg.quick {
		w.size.ToRs, w.size.ServersPerToR, w.size.ConnsPerServer = 1, 10, 100
		w.size.Window = 200 * time.Millisecond
	}
	return w, nil
}

func (w *millionHybrid) iterate(parent int, _ func()) (iterResult, error) {
	_, end := w.cfg.tr.start(w.cfg.tr.newTrace(), parent, "experiment.RunMillion")
	res, err := experiment.RunMillion([]experiment.Protocol{experiment.ProtoTRIM}, w.size,
		experiment.Options{Seed: w.cfg.seed})
	end()
	if err != nil {
		return iterResult{}, err
	}
	var out iterResult
	rows := append([]experiment.MillionRow(nil), res.Rows...)
	for i := range rows {
		out.ops += rows[i].Scheduled
		out.failed += rows[i].Scheduled - rows[i].Completed
		// Host-time fields differ between identical runs.
		rows[i].Wall, rows[i].NsPerConn, rows[i].HeapBytes, rows[i].BytesPerConn = 0, 0, 0, 0
	}
	out.digest = digestOf(res.Conns, rows)
	return out, nil
}

func (w *millionHybrid) close() error { return nil }

// ---- sweep_cold ----

// sweepSpec is one sweep run: a runner id and a switch queue discipline
// ("" = the runner's default drop-tail).
type sweepSpec struct{ id, aqm string }

func (s sweepSpec) String() string {
	if s.aqm == "" {
		return s.id
	}
	return s.id + "@" + s.aqm
}

// sweeps are the runs of sweep_cold and of cache_warm. aqmsweep is left
// out, its CI slice too: their cells run until the last response
// completes or a 20 s simulated deadline, and on about one seed in
// twenty a cell takes 25 times as long as usual. Running resilience
// again under RED and FavourQueue keeps those disciplines in the
// workload; recoverysweep brings CoDel.
var sweeps = []sweepSpec{{"recoverysweep", ""}, {"resilience", ""}, {"resilience", "red"}, {"resilience", "favour"}}

// sweepCells is the number of cells the sweeps decompose into per seed.
const sweepCells = 36 + 3*12

// sweepSeeds derives the seeds one sweep_cold iteration runs the sweeps
// with: more than one, so that an iteration is long enough to time.
func sweepSeeds(cfg runConfig) []int64 {
	if cfg.quick {
		return []int64{cfg.seed}
	}
	return []int64{cfg.seed * 100, cfg.seed*100 + 1}
}

// runSweep runs one sweep against store (nil = cache off), appending its
// tables to w.
func runSweep(tr *tracer, parent int, sw sweepSpec, seed int64, store *cellcache.Store, w io.Writer) error {
	_, end := tr.start(tr.newTrace(), parent, "experiment.Run:"+sw.String())
	err := experiment.Run(sw.id, experiment.Options{Seed: seed, AQM: sw.aqm, Cache: store}, w)
	end()
	if err != nil {
		return fmt.Errorf("%s seed %d: %w", sw, seed, err)
	}
	return nil
}

// runSweeps runs every sweep for every seed and returns the concatenated
// tables; lap is called after each run.
func runSweeps(cfg runConfig, specs []sweepSpec, seeds []int64, store *cellcache.Store, parent int, lap func()) ([]byte, error) {
	var buf bytes.Buffer
	for _, seed := range seeds {
		for _, sw := range specs {
			err := runSweep(cfg.tr, parent, sw, seed, store, &buf)
			lap()
			if err != nil {
				return nil, err
			}
		}
	}
	return buf.Bytes(), nil
}

// quickSweeps is the test-sized sweep list.
var quickSweeps = []sweepSpec{{"resilience-smoke", ""}}

type sweepCold struct {
	cfg   runConfig
	specs []sweepSpec
	cells int
	seeds []int64
	ref   []byte // tables with the cache off
}

func openSweepCold(cfg runConfig) (instance, error) {
	w := &sweepCold{cfg: cfg, specs: sweeps, cells: sweepCells, seeds: sweepSeeds(cfg)}
	if cfg.quick {
		w.specs, w.cells = quickSweeps, 2
	}
	// Preparation is the cache-off pass whose tables every cold pass
	// must reproduce.
	var err error
	w.ref, err = runSweeps(cfg, w.specs, w.seeds, nil, 0, func() {})
	return w, err
}

func (w *sweepCold) iterate(parent int, lap func()) (iterResult, error) {
	dir, err := os.MkdirTemp("", "sweep-cold-")
	if err != nil {
		return iterResult{}, err
	}
	out := iterResult{cleanup: func() { os.RemoveAll(dir) }}
	_, end := w.cfg.tr.start(w.cfg.tr.newTrace(), parent, "cellcache.Open")
	store, err := cellcache.Open(dir)
	end()
	if err != nil {
		return out, err
	}
	tables, err := runSweeps(w.cfg, w.specs, w.seeds, store, parent, lap)
	if err != nil {
		return out, err
	}
	// One op is one simulated cell; a cold pass must simulate all of them
	// and print what the cache-off pass printed.
	out.ops = w.cells * len(w.seeds)
	if got := int(store.Misses()); got != out.ops || store.Hits() != 0 {
		return out, fmt.Errorf("sweep_cold: %d cells simulated and %d hits, want %d and 0", got, store.Hits(), out.ops)
	}
	if !bytes.Equal(tables, w.ref) {
		out.failed = out.ops
	}
	out.digest = digestOf(string(tables))
	return out, nil
}

func (w *sweepCold) close() error { return nil }
