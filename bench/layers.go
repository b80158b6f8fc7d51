package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"
)

// Layer drivers. Each times calls into one layer's exported functions
// from outside, as the fastest of a few repeats of a fixed-size loop, or
// reports an exact count. They use fixed inputs (seed 1), not the run's
// seed: a count then repeats exactly between two commits, and a time
// measures the layer rather than the input. They run on one processor;
// the experiment driver says where it uses two.

// layerDriver fills in the metrics of one layer (or two that share a
// scenario).
type layerDriver struct {
	layer string
	run   func(cfg runConfig, out map[string]float64) error
}

var layerDrivers = []layerDriver{
	{"sim", driveSim},
	{"netsim", driveNetsim},
	{"aqm", driveAQM},
	{"tcp", driveTCP},
	{"core+cc", driveHooks},
	{"httpapp", driveHTTPApp},
	{"hybrid", driveHybrid},
	{"topology+workload+metrics", driveSmallLayers},
	{"cellcache", driveCellCache},
	{"experiment", driveExperiment},
	{"service", driveService},
}

// layerReps is how often a driver repeats a loop to find its fastest run.
const layerReps = 5

// cost is what one repeat of a driver loop took.
type cost struct {
	wall    time.Duration
	mallocs uint64
}

// measured runs fn from a collected heap and returns its cost.
func measured(fn func()) cost {
	runtime.GC()
	_, m0 := heapCounters()
	t0 := time.Now()
	fn()
	wall := time.Since(t0)
	_, m1 := heapCounters()
	return cost{wall, m1 - m0}
}

// fastest repeats a loop and keeps the cheapest repeat. Each repeat
// builds its own state in setup, which is not timed. A loop has no error
// path of its own to keep it bare: it panics when a call fails or a
// result is wrong, and fastest reports that as the driver's error.
func fastest(reps int, setup func() (loop func(), err error)) (best cost, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("driver loop: %v", r)
		}
	}()
	for i := 0; i < reps; i++ {
		loop, err := setup()
		if err != nil {
			return best, err
		}
		c := measured(loop)
		if i == 0 || c.wall < best.wall {
			best.wall = c.wall
		}
		if i == 0 || c.mallocs < best.mallocs {
			best.mallocs = c.mallocs
		}
	}
	return best, nil
}

// per divides a cost's wall time by a count, in nanoseconds.
func (c cost) per(n int) float64 { return float64(c.wall.Nanoseconds()) / float64(n) }

// ms is the wall time in milliseconds.
func (c cost) ms() float64 { return float64(c.wall.Nanoseconds()) / 1e6 }

// percentile returns the p-th percentile (nearest rank) of ds in ms.
func percentile(ds []time.Duration, p float64) float64 {
	xs := append([]time.Duration(nil), ds...)
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	rank := int(p/100*float64(len(xs))+0.999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(xs) {
		rank = len(xs) - 1
	}
	return float64(xs[rank].Nanoseconds()) / 1e6
}

// withProcs runs fn with GOMAXPROCS set to n (never above the box).
func withProcs(n int, fn func() error) error {
	if cpus := runtime.NumCPU(); n > cpus {
		n = cpus
	}
	old := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(old)
	return fn()
}
