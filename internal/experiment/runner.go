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

// sweep is the one fan-out of every matrix runner: it runs run(cell, opts)
// for each cell on RunTrials and returns the rows in cell order. A cell
// does not start once the run is canceled. Each resolves through
// cachedCell, and the cell value is its key beside family: every exported
// field of a cell is a coordinate of the key, so a cell carries its seed
// and every run-level input that shapes its row, and an axis value that
// carries behaviour stays in an unexported field and is keyed by name.
// Each finished cell, simulated or answered from the store, publishes a
// "cell" event under its String, so a warm run streams what a cold one
// does. A cell runs under opts with an env list of its own: once the cell
// returns, its environment goes back to the Run's list for the worker's
// next cell to clear and reuse; a cell that panics keeps its own.
func sweep[C fmt.Stringer, R any](opts Options, family string, cells []C, run func(C, Options) (*R, error)) ([]R, error) {
	ctr := opts.cells(len(cells))
	rows, err := RunTrials(len(cells), func(i int) (*R, error) {
		if err := opts.interrupted(); err != nil {
			return nil, err
		}
		c := cells[i]
		key := struct {
			Family string `json:"family"`
			Cell   C      `json:"cell"`
		}{family, c}
		cellOpts := opts
		cellOpts.envs = opts.envs.forCell()
		row, _, err := cachedCell(opts, key, func() (*R, error) { return run(c, cellOpts) })
		cellOpts.envs.giveBack()
		if err != nil {
			return nil, err
		}
		ctr.finished(c.String())
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]R, len(rows))
	for i, row := range rows {
		out[i] = *row
	}
	return out, nil
}

// seededCell is the cell of a sweep over one axis: its value and a seed.
type seededCell[T any] struct {
	Value T     `json:"value"`
	Seed  int64 `json:"seed"`
}

func (c seededCell[T]) String() string { return fmt.Sprint(c.Value) }

// seededCells returns one cell per value, each with the run's seed.
func seededCells[T any](opts Options, values []T) []seededCell[T] {
	cells := make([]seededCell[T], len(values))
	for i, v := range values {
		cells[i] = seededCell[T]{v, opts.seed()}
	}
	return cells
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
