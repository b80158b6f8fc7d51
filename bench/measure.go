package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"time"
)

// The measurement procedure. One process per run. A run opens the
// workload, makes one untimed warm-up iteration and then a fixed number
// of identical timed iterations. An iteration is a fixed sequence of parts
// (one call into the program each, or one batch of requests), and every
// part does byte-identical work in every iteration. Host-time metrics are
// the sum over the parts of each part's fastest time, not a median:
// interference on a shared box only ever adds time, and a part of a few
// hundred milliseconds is far likelier to be seen once without
// interference than a whole iteration is (bench/README.md has the sizing
// measurements). Set-up is timed apart, on fresh processes (coldStarts).

// The number of timed iterations is fixed per workload (workloadDef.iters
// at the manifest's run length) and scales with --seconds, read once: a
// count that followed the clock would give a faster commit more
// iterations, and so lower minima, and would make the memory of a
// workload that keeps state depend on the box's speed.
const (
	minTimedIterations = 12
	quickIterations    = 3 // -quick, what go test runs
	tracedIterations   = 3 // each side of a traced run
	coldStartRuns      = 3 // fresh processes timed for setup_s
)

// timedIterations is how many timed iterations a run of w makes.
func (w workloadDef) timedIterations(seconds float64, quick bool) int {
	if quick {
		return quickIterations
	}
	n := int(float64(w.iters)*seconds/runSeconds + 0.5)
	if n < minTimedIterations {
		n = minTimedIterations
	}
	return n
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is a run's stamped outcome (what -json writes and -compare reads).
type result struct {
	Workload   string                 `json:"workload"`
	Seed       int64                  `json:"seed"`
	Seconds    float64                `json:"seconds"`
	Quick      bool                   `json:"quick,omitempty"`
	Traced     bool                   `json:"traced,omitempty"`
	Env        envStamp               `json:"env"`
	Iterations int                    `json:"iterations"`
	Digest     string                 `json:"digest"`
	Golden     string                 `json:"golden"` // match, mismatch or none
	Correct    bool                   `json:"correct"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	Metrics    map[string]metricValue `json:"metrics"`
	// PartWall is each part's fastest wall seconds (they add up to
	// wall_s); WallSamples are the timed iterations' wall seconds and
	// SetupSamples the cold starts' (setup_s is the fastest), in order,
	// for looking at the noise of the box.
	PartWall     []float64 `json:"part_wall_s"`
	WallSamples  []float64 `json:"wall_samples"`
	SetupSamples []float64 `json:"setup_samples,omitempty"`
}

// samples are the per-iteration measurements of one run.
type samples struct {
	setup     []float64   // host seconds until the workload was warm, per set-up
	wall, cpu [][]float64 // seconds, per iteration and part
	alloc     []float64   // bytes allocated per iteration
	mallocs   []float64   // objects allocated per iteration
	ops       int         // per iteration
	attempted int
	failed    int
	digest    string
}

// runIterations opens the workload, warms it up and makes iters timed
// iterations. Its one set-up sample is the host time from before opening
// to the end of the warm-up, in this process.
func runIterations(w workloadDef, cfg runConfig, iters int) (samples, error) {
	var s samples
	start := time.Now()
	inst, err := w.open(cfg)
	if err != nil {
		return s, err
	}
	defer func() {
		if cerr := inst.close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "bench: close:", cerr)
		}
	}()

	// The warm-up fills the program's lazy state and fixes what every
	// later iteration must reproduce.
	warm, err := timeIteration(inst, cfg.tr, "warmup")
	if err != nil {
		return s, err
	}
	s.setup = []float64{time.Since(start).Seconds()}
	s.ops, s.digest = warm.ops, warm.digest
	if warm.failed > 0 {
		s.attempted, s.failed = warm.ops, warm.failed
	}

	for i := 0; i < iters; i++ {
		r, err := timeIteration(inst, cfg.tr, "iteration")
		if err != nil {
			return s, err
		}
		if r.ops != warm.ops || r.digest != warm.digest {
			// Not deterministic: nothing this iteration produced counts.
			fmt.Fprintf(os.Stderr, "bench: iteration %d: ops %d digest %.12s, warm-up had %d and %.12s\n",
				i, r.ops, r.digest, warm.ops, warm.digest)
			r.failed = r.ops
		}
		if len(r.wall) != len(warm.wall) {
			return s, fmt.Errorf("iteration %d has %d parts, the warm-up had %d", i, len(r.wall), len(warm.wall))
		}
		s.attempted += r.ops
		s.failed += r.failed
		s.wall = append(s.wall, r.wall)
		s.cpu = append(s.cpu, r.cpu)
		s.alloc = append(s.alloc, r.alloc)
		s.mallocs = append(s.mallocs, r.mallocs)
	}
	return s, nil
}

// coldStarts times the workload's set-up on fresh processes, which is
// where work moved into package initialisation, lazy tables or the
// preparation shows: each child is this binary started with -coldstart,
// which opens the workload, makes its first iteration, closes it and
// exits. A sample is the child's whole life as seen from here. It also
// returns how many operations failed in the children: a child that does
// not reproduce digest fails all ops of its iteration.
func coldStarts(w workloadDef, seed int64, digest string, ops int) (secs []float64, failed int, err error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	for i := 0; i < coldStartRuns; i++ {
		cmd := exec.Command(exe, "-coldstart", "-workload", w.name, "-seed", fmt.Sprint(seed))
		cmd.Stderr = os.Stderr
		start := time.Now()
		out, err := cmd.Output()
		secs = append(secs, time.Since(start).Seconds())
		if err != nil {
			return nil, 0, fmt.Errorf("cold start %d: %w", i, err)
		}
		var got string
		var bad int
		if _, err := fmt.Sscan(string(out), &got, &bad); err != nil {
			return nil, 0, fmt.Errorf("cold start %d printed %q: %w", i, out, err)
		}
		if got != digest {
			fmt.Fprintf(os.Stderr, "bench: cold start %d: digest %.12s, this process had %.12s\n", i, got, digest)
			bad = ops
		}
		failed += bad
	}
	return secs, failed, nil
}

// coldStart is the child's side of coldStarts.
func coldStart(w workloadDef, seed int64) error {
	pinRuntime(w.procs)
	s, err := runIterations(w, runConfig{seed: seed}, 0)
	if err != nil {
		return err
	}
	fmt.Println(s.digest, s.failed)
	return nil
}

// lapClock times the parts of one iteration.
type lapClock struct {
	wall, cpu []float64
	t         time.Time
	c         time.Duration
}

// lap ends the current part and starts the next.
func (l *lapClock) lap() {
	t, c := time.Now(), cpuTime()
	l.wall = append(l.wall, t.Sub(l.t).Seconds())
	l.cpu = append(l.cpu, (c - l.c).Seconds())
	l.t, l.c = t, c
}

// timedIteration is one iteration with what it cost the host.
type timedIteration struct {
	iterResult
	wall, cpu      []float64 // seconds per part
	alloc, mallocs float64   // bytes and objects allocated
}

// timeIteration runs one iteration from a collected heap, so that every
// iteration starts from the same collector state, and stops the clock
// before the iteration's cleanup.
func timeIteration(inst instance, tr *tracer, name string) (timedIteration, error) {
	runtime.GC()
	id, end := tr.start(tr.newTrace(), 0, name)
	b0, m0 := heapCounters()
	clock := lapClock{t: time.Now(), c: cpuTime()}
	r, err := inst.iterate(id, clock.lap)
	clock.lap() // whatever followed the last part the workload marked
	b1, m1 := heapCounters()
	end()
	if r.cleanup != nil {
		r.cleanup()
	}
	if r.opErr != nil {
		fmt.Fprintln(os.Stderr, "bench: failed operation:", r.opErr)
	}
	return timedIteration{r, clock.wall, clock.cpu, float64(b1 - b0), float64(m1 - m0)}, err
}

// fastestParts returns, for each part of an iteration, its smallest time
// in any iteration.
func fastestParts(iters [][]float64) []float64 {
	best := append([]float64(nil), iters[0]...)
	for _, it := range iters[1:] {
		for p, v := range it {
			if v < best[p] {
				best[p] = v
			}
		}
	}
	return best
}

// sumOfFastest adds the parts' fastest times up.
func sumOfFastest(iters [][]float64) float64 { return sumOf(fastestParts(iters)) }

func sumOf(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum
}

func meanOf(xs []float64) float64 { return sumOf(xs) / float64(len(xs)) }

func minOf(xs []float64) float64 {
	best := xs[0]
	for _, x := range xs[1:] {
		best = min(best, x)
	}
	return best
}

// endToEndMetrics turns a run's samples into the end-to-end metrics.
func endToEndMetrics(s samples) map[string]metricValue {
	wall := sumOfFastest(s.wall)
	values := map[string]float64{
		"setup_s":     minOf(s.setup),
		"wall_s":      wall,
		"cpu_s":       sumOfFastest(s.cpu),
		"ops_per_s":   float64(s.ops) / wall,
		"peak_rss_mb": peakRSSMB(),
		"alloc_mb":    meanOf(s.alloc) / (1 << 20),
		"mallocs":     meanOf(s.mallocs),
	}
	out := map[string]metricValue{}
	for _, m := range endToEnd {
		out[m.Name] = metricValue{values[m.Name], m.Unit}
	}
	return out
}
