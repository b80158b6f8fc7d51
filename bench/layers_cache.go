package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"tcptrim"
	"tcptrim/internal/cellcache"
	"tcptrim/internal/metrics"
	"tcptrim/internal/topology"
	"tcptrim/internal/workload"
)

// driveSmallLayers times the layers that take a small share of a run:
// topology construction, train scheduling, and the FCT distribution
// (exact below its sample cap, sketched above, and its JSON snapshot).
func driveSmallLayers(_ runConfig, out map[string]float64) error {
	tree, err := fastest(layerReps, func() (func(), error) {
		return func() { topology.NewTwoLevelTree(tcptrim.NewScheduler(), topology.TwoLevelTreeConfig{ToRs: 25}) }, nil
	})
	if err != nil {
		return err
	}
	out["topology.tree_build_ms"] = tree.ms()
	fat, err := fastest(layerReps, func() (func(), error) {
		return func() {
			if _, err := topology.NewFatTree(tcptrim.NewScheduler(), 8, tcptrim.DefaultStarLink(100)); err != nil {
				panic(err)
			}
		}, nil
	})
	if err != nil {
		return err
	}
	out["topology.fattree_build_ms"] = fat.ms()

	const trains = 200_000
	sched, err := fastest(layerReps, func() (func(), error) {
		rng := rand.New(rand.NewSource(1))
		return func() { workload.ScheduleCount(rng, 0, trains, workload.PTSizes{}, workload.PTGaps{}) }, nil
	})
	if err != nil {
		return err
	}
	out["workload.ns_per_train"] = sched.per(trains)

	// 38k samples is what one million_hybrid iteration adds.
	const samples = 38_000
	values := make([]float64, samples)
	rng := rand.New(rand.NewSource(1))
	for i := range values {
		values[i] = 1e-4 + rng.ExpFloat64()*2e-4
	}
	add := func(cap int) (cost, error) {
		return fastest(layerReps, func() (func(), error) {
			var d metrics.Distribution
			if cap > 0 {
				d.SetSampleCap(cap)
				for _, v := range values[:cap+1] {
					d.Add(v)
				}
			}
			return func() {
				for _, v := range values {
					d.Add(v)
				}
			}, nil
		})
	}
	exact, err := add(0)
	if err != nil {
		return err
	}
	out["metrics.ns_per_add"] = exact.per(samples)
	sketched, err := add(1024)
	if err != nil {
		return err
	}
	out["metrics.ns_per_add_sketched"] = sketched.per(samples)

	snap, err := fastest(layerReps, func() (func(), error) {
		var d metrics.Distribution
		for _, v := range values {
			d.Add(v)
		}
		return func() {
			raw, err := json.Marshal(d.Snapshot())
			if err != nil {
				panic(err)
			}
			var back metrics.Snapshot
			if err := json.Unmarshal(raw, &back); err != nil {
				panic(err)
			}
			if _, err := back.Restore(); err != nil {
				panic(err)
			}
		}, nil
	})
	if err != nil {
		return err
	}
	out["metrics.snapshot_roundtrip_us"] = snap.per(1) / 1e3
	return nil
}

// driveCellCache times the store's four operations on a 4 KB payload.
func driveCellCache(_ runConfig, out map[string]float64) error {
	type cellSpec struct {
		Family   string `json:"family"`
		Protocol string `json:"protocol"`
		ToRs     int    `json:"tors"`
		Seed     int64  `json:"seed"`
	}
	const keys = 20_000
	key, err := fastest(layerReps, func() (func(), error) {
		return func() {
			for i := 0; i < keys; i++ {
				cellcache.Key(cellSpec{"largescale", "TCP-TRIM", 5, int64(i)}, "bench")
			}
		}, nil
	})
	if err != nil {
		return err
	}
	out["cellcache.key_us"] = key.per(keys) / 1e3

	const cells = 500
	payload := make([]byte, 4<<10)
	names := make([]string, cells)
	for i := range names {
		names[i] = cellcache.Key(cellSpec{"bench", "x", 0, int64(i)}, "bench")
	}
	base, err := os.MkdirTemp("", "cellcache-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(base)
	rep := 0
	var filled string // a directory holding every cell
	put, err := fastest(layerReps, func() (func(), error) {
		rep++
		filled = filepath.Join(base, fmt.Sprint(rep))
		store, err := cellcache.Open(filled)
		if err != nil {
			return nil, err
		}
		return func() {
			for _, k := range names {
				if err := store.Put(k, payload); err != nil {
					panic(err)
				}
			}
		}, nil
	})
	if err != nil {
		return err
	}
	out["cellcache.put_disk_us"] = put.per(cells) / 1e3

	// A fresh store on a filled directory reads every first Get from disk
	// and every later one from memory.
	gets := func(rounds int) (cost, error) {
		return fastest(layerReps, func() (func(), error) {
			store, err := cellcache.Open(filled)
			if err != nil {
				return nil, err
			}
			if rounds > 1 { // time the memory tier only
				for _, k := range names {
					store.Get(k)
				}
			}
			return func() {
				for r := 0; r < rounds; r++ {
					for _, k := range names {
						if _, ok := store.Get(k); !ok {
							panic("cellcache: stored cell not found")
						}
					}
				}
			}, nil
		})
	}
	disk, err := gets(1)
	if err != nil {
		return err
	}
	out["cellcache.get_disk_us"] = disk.per(cells) / 1e3
	mem, err := gets(400)
	if err != nil {
		return err
	}
	out["cellcache.get_mem_us"] = mem.per(400*cells) / 1e3
	return nil
}

// dirKB is the size of the files in dir.
func dirKB(dir string) (float64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil {
			total += info.Size()
		}
	}
	return float64(total) / 1024, nil
}

// driveExperiment prices the sweep engine around the simulations: the
// RunTrials fan-out across two processors, what arming a store costs a
// cold pass (two processors, as in sweep_cold), and fully warm passes
// from memory and from disk (one, as in cache_warm). The cell
// counts are the store's view of the same passes.
func driveExperiment(_ runConfig, out map[string]float64) error {
	cfg := runConfig{seed: 1}
	seeds := sweepSeeds(cfg)
	base, err := os.MkdirTemp("", "experiment-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(base)

	rep := 0
	var store *cellcache.Store
	var ref []byte
	// cold times one pass into a fresh directory (or with the cache off).
	cold := func(procs, reps int, cached bool) (cost, error) {
		var c cost
		err := withProcs(procs, func() error {
			var err error
			c, err = fastest(reps, func() (func(), error) {
				store = nil
				if cached {
					rep++
					var err error
					if store, err = cellcache.Open(filepath.Join(base, fmt.Sprint(rep))); err != nil {
						return nil, err
					}
				}
				return func() {
					tables, err := runSweeps(cfg, sweeps, seeds, store, 0, func() {})
					if err != nil {
						panic(err)
					}
					ref = tables
				}, nil
			})
			return err
		})
		return c, err
	}

	off, err := cold(2, 3, false)
	if err != nil {
		return err
	}
	one, err := cold(1, 2, true)
	if err != nil {
		return err
	}
	two, err := cold(2, 3, true)
	if err != nil {
		return err
	}
	out["experiment.fanout_speedup"] = float64(one.wall) / float64(two.wall)
	out["experiment.cache_overhead_pct"] = 100 * (float64(two.wall) - float64(off.wall)) / float64(off.wall)
	out["experiment.cells"] = float64(store.Misses())
	out["cellcache.misses"] = float64(store.Misses())
	if out["cellcache.disk_kb"], err = dirKB(store.Dir()); err != nil {
		return err
	}

	// warm re-runs every sweep against st and checks the bytes.
	warm := func(st *cellcache.Store) error {
		tables, err := runSweeps(cfg, sweeps, seeds, st, 0, func() {})
		if err == nil && !bytes.Equal(tables, ref) {
			err = fmt.Errorf("experiment: warm tables differ from cold tables")
		}
		return err
	}
	timedWarm := func(st *cellcache.Store) func() {
		return func() {
			if err := warm(st); err != nil {
				panic(err)
			}
		}
	}
	filled := store
	mem, err := fastest(layerReps, func() (func(), error) { return timedWarm(filled), nil })
	if err != nil {
		return err
	}
	out["experiment.warm_mem_ms"] = mem.ms()
	hits := filled.Hits()
	if err := warm(filled); err != nil {
		return err
	}
	out["cellcache.hits"] = float64(filled.Hits() - hits)

	disk, err := fastest(layerReps, func() (func(), error) {
		st, err := cellcache.Open(filled.Dir())
		return timedWarm(st), err
	})
	if err != nil {
		return err
	}
	out["experiment.warm_disk_ms"] = disk.ms()

	// What a store holds once it has read every cell: live heap
	// across a warm pass through each of 32 fresh stores, all held
	// until the second reading, so that the stores (a few MB
	// together) and not the runtime's own churn make the difference.
	stores := make([]*cellcache.Store, 32)
	before := liveHeap()
	for i := range stores {
		if stores[i], err = cellcache.Open(filled.Dir()); err != nil {
			return err
		}
		if err := warm(stores[i]); err != nil {
			return err
		}
	}
	after := liveHeap()
	runtime.KeepAlive(stores)
	out["cellcache.mem_kb"] = (after - before) / 1024 / float64(len(stores))
	return nil
}

// driveService prices trimsvc around the simulations, on the one
// processor cache_warm runs on: boot and shutdown, the cold fill against direct runs, 1200 run-level
// hits split into their three requests, a run-level miss composed from
// cached cells, and what a retained job holds.
func driveService(_ runConfig, out map[string]float64) error {
	cfg := runConfig{seed: 1}
	var ref [][]byte
	direct, err := fastest(2, func() (func(), error) {
		return func() {
			var err error
			if ref, err = directRuns(sweeps, cfg.seed); err != nil {
				panic(err)
			}
		}, nil
	})
	if err != nil {
		return err
	}

	// Three times: boot and stop an empty service, then fill a fresh
	// one cold; the last filled service stays up for what follows.
	var boot, shut, fill time.Duration
	keepMin := func(best *time.Duration, d time.Duration) {
		if *best == 0 || d < *best {
			*best = d
		}
	}
	var svc *svcHarness
	stop := func(h *svcHarness) error {
		t0 := time.Now()
		err := h.shutdown(nil)
		keepMin(&shut, time.Since(t0))
		return err
	}
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		empty, err := bootService(nil, 0)
		if err != nil {
			return err
		}
		keepMin(&boot, time.Since(t0))
		if err := stop(empty); err != nil {
			return err
		}
		if svc != nil {
			if err := svc.shutdown(nil); err != nil {
				return err
			}
		}
		t0 = time.Now()
		if svc, err = coldFill(cfg, sweeps, ref); err != nil {
			return err
		}
		keepMin(&fill, time.Since(t0))
	}
	defer svc.shutdown(nil)
	out["service.boot_ms"] = float64(boot.Nanoseconds()) / 1e6
	out["service.shutdown_ms"] = float64(shut.Nanoseconds()) / 1e6
	out["service.cold_overhead_pct"] = 100 * (float64(fill) - float64(direct.wall)) / float64(direct.wall)

	// 1200 hits: 12 samples lie beyond the 99th percentile.
	const trips = 1200
	clients := []*svcClient{newSvcClient(svc.ts.URL), newSvcClient(svc.ts.URL)}
	defer clients[0].close()
	defer clients[1].close()
	times, _, err := closedLoop(nil, 0, clients, sweeps, ref, cfg.seed, trips/len(clients))
	if err != nil {
		return err
	}
	var submit, events, result, total []time.Duration
	for _, ts := range times {
		for _, t := range ts {
			submit, events = append(submit, t.submit), append(events, t.events)
			result, total = append(result, t.result), append(total, t.total)
		}
	}
	out["service.submit_ms_p50"] = percentile(submit, 50)
	out["service.events_ms_p50"] = percentile(events, 50)
	out["service.result_ms_p50"] = percentile(result, 50)
	out["service.rt_ms_p50"] = percentile(total, 50)
	out["service.rt_ms_p99"] = percentile(total, 99)

	// What the service keeps per job: live heap across as many trips
	// again, whose times are dropped before the second reading.
	before := liveHeap()
	if _, _, err := closedLoop(nil, 0, clients, sweeps, ref, cfg.seed, trips/len(clients)); err != nil {
		return err
	}
	out["service.heap_kb_per_job"] = (liveHeap() - before) / 1024 / trips

	// A spec the run cache has not seen whose cells the store has:
	// the one policy of recoverysweep that composes from cached cells.
	pre, err := clients[0].stats()
	if err != nil {
		return err
	}
	t, err := clients[0].roundTrip(nil, 0, fmt.Sprintf(`{"runner":"recoverysweep","recovery":"classic","seed":%d}`, cfg.seed), nil)
	if err != nil {
		return err
	}
	post, err := clients[0].stats()
	if err != nil {
		return err
	}
	if post.Simulations != pre.Simulations+1 || post.CellMisses != pre.CellMisses || post.CellHits == pre.CellHits {
		return fmt.Errorf("service: compose run simulated cells (stats %+v then %+v)", pre, post)
	}
	out["service.compose_ms"] = float64(t.total.Nanoseconds()) / 1e6
	out["service.simulations"] = float64(post.Simulations)
	out["service.cache_hits"] = float64(post.CacheHits)
	out["service.cell_hits"] = float64(post.CellHits)
	return nil
}
