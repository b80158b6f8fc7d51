package experiment

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// RunTrials is the experiment harness's unified parallel fan-out: it runs
// fn(i) for every i in [0, n) on a bounded pool of workers and returns the
// results in index order. Each trial is an independent simulation (its own
// scheduler, network, and rng), so trials share nothing and the fan-out is
// embarrassingly parallel.
//
// Guarantees, regardless of worker interleaving:
//   - results[i] is fn(i)'s value — ordering is deterministic;
//   - the returned error is the lowest-index trial error (and the partial
//     results slice is still returned alongside it);
//   - a panicking trial does not hang or kill the pool: the first panic is
//     re-raised on the caller's goroutine, annotated with its trial index,
//     after all workers have drained.
//
// Worker count is min(n, GOMAXPROCS); trials are handed out dynamically so
// uneven cell durations (large-scale sweeps mix tiny and huge topologies)
// still load-balance.
func RunTrials[T any](n int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	results := make([]T, n)
	errs := make([]error, n)
	panics := make([]any, n)

	workers := min(n, runtime.GOMAXPROCS(0))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				runTrial(i, fn, results, errs, panics)
			}
		}()
	}
	wg.Wait()

	for i, p := range panics {
		if p != nil {
			panic(fmt.Sprintf("experiment: trial %d panicked: %v", i, p))
		}
	}
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}

// SplitSeed derives an independent per-trial seed from a base seed and a
// trial index (splitmix64 finalizer over base + (i+1)·golden-gamma).
// Deriving seeds this way — instead of seed+i or drawing from a shared rng
// in hand-out order — makes every trial's random stream a pure function of
// (base, i), so results cannot depend on how many workers ran the fan-out
// or which worker picked up which trial.
func SplitSeed(base int64, i int) int64 {
	z := uint64(base) + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// RunSeededTrials is RunTrials with deterministic per-trial seeding: trial
// i receives SplitSeed(base, i) and must take all of its randomness from
// it. Same base, same results — byte-identical regardless of GOMAXPROCS.
func RunSeededTrials[T any](n int, base int64, fn func(i int, seed int64) (T, error)) ([]T, error) {
	return RunTrials(n, func(i int) (T, error) {
		return fn(i, SplitSeed(base, i))
	})
}

// runTrial executes one trial, converting a panic into a recorded value so
// the sibling trials finish before it is re-raised.
func runTrial[T any](i int, fn func(i int) (T, error), results []T, errs []error, panics []any) {
	defer func() {
		if r := recover(); r != nil {
			panics[i] = r
		}
	}()
	results[i], errs[i] = fn(i)
}
