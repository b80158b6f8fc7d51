package experiment

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"tcptrim/internal/cellcache"
)

func TestRunTrialsOrderedResults(t *testing.T) {
	// Results come back indexed by trial regardless of which worker ran
	// what or in which order trials finished.
	got, err := RunTrials(100, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Fatalf("len = %d, want 100", len(got))
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("result[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestRunTrialsRunsEachExactlyOnce(t *testing.T) {
	var counts [37]atomic.Int64
	if _, err := RunTrials(len(counts), func(i int) (struct{}, error) {
		counts[i].Add(1)
		return struct{}{}, nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range counts {
		if n := counts[i].Load(); n != 1 {
			t.Errorf("trial %d ran %d times", i, n)
		}
	}
}

func TestRunTrialsZeroAndNegative(t *testing.T) {
	for _, n := range []int{0, -3} {
		got, err := RunTrials(n, func(i int) (int, error) {
			t.Fatalf("fn called for n=%d", n)
			return 0, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 0 {
			t.Errorf("n=%d: len = %d, want 0", n, len(got))
		}
	}
}

func TestRunTrialsReturnsLowestIndexError(t *testing.T) {
	// All trials run to completion; the error reported is the one from
	// the lowest-index failing trial, deterministically.
	errLow := errors.New("low")
	errHigh := errors.New("high")
	var ran atomic.Int64
	got, err := RunTrials(50, func(i int) (int, error) {
		ran.Add(1)
		switch i {
		case 7:
			return 0, errLow
		case 31:
			return 0, errHigh
		}
		return i, nil
	})
	if !errors.Is(err, errLow) {
		t.Fatalf("err = %v, want %v", err, errLow)
	}
	if ran.Load() != 50 {
		t.Errorf("ran %d trials, want 50", ran.Load())
	}
	// Partial results for the successful trials are still populated.
	if got[4] != 4 || got[40] != 40 {
		t.Errorf("partial results lost: got[4]=%d got[40]=%d", got[4], got[40])
	}
}

func TestRunTrialsPanicPropagatesWithIndex(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic did not propagate")
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("recovered %T, want string", r)
		}
		if !strings.Contains(msg, "trial 13") || !strings.Contains(msg, "boom") {
			t.Errorf("panic message %q missing trial index or cause", msg)
		}
	}()
	_, _ = RunTrials(40, func(i int) (int, error) {
		if i == 13 {
			panic("boom")
		}
		return i, nil
	})
}

// TestSweep: sweep returns rows in cell order whatever the worker count,
// resolves equal cell values to one store entry, starts no cell once the
// run is canceled, and streams the same cell names and totals warm as
// cold.
func TestSweep(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range []struct {
		name   string
		procs  int
		values []int
		// cancelIn cancels the run's context inside that cell (-1: never).
		cancelIn int
		// warm re-runs the sweep on the store its cold run filled.
		warm     bool
		wantRuns int
		// wantMisses and wantHits count the cold run's store traffic.
		wantMisses, wantHits int64
		wantErr              error
	}{
		{name: "order, 1 worker", procs: 1, values: []int{3, 1, 4, 1, 5, 9, 2, 6}, cancelIn: -1, wantRuns: 7, wantMisses: 7, wantHits: 1},
		{name: "order, 4 workers", procs: 4, values: []int{3, 5, 8, 9, 7, 2, 0, 6, 4, 1}, cancelIn: -1, wantRuns: 10, wantMisses: 10},
		{name: "equal cells share an entry", procs: 1, values: []int{2, 2, 2}, cancelIn: -1, wantRuns: 1, wantMisses: 1, wantHits: 2},
		{name: "canceled", procs: 1, values: []int{0, 1, 2}, cancelIn: 0, wantRuns: 1, wantMisses: 1, wantErr: context.Canceled},
		{name: "warm streams what cold did", procs: 4, values: []int{4, 3, 2, 1}, cancelIn: -1, warm: true, wantRuns: 4, wantMisses: 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runtime.GOMAXPROCS(tc.procs)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			store := cellcache.NewMemory()
			var runs atomic.Int64
			run := func() ([]int, []string, error) {
				log := &eventLog{}
				opts := Options{Seed: 5, Cache: store, Context: ctx, Progress: log}
				rows, err := sweep(opts, "test", seededCells(opts, tc.values), func(c seededCell[int], _ Options) (*int, error) {
					runs.Add(1)
					if c.Value == tc.cancelIn {
						cancel()
					}
					v := 10*c.Value + int(c.Seed)
					return &v, nil
				})
				var events []string
				for _, ev := range log.kind("cell") {
					events = append(events, fmt.Sprintf("%s/%d", ev.Name, ev.Total))
				}
				sort.Strings(events)
				return rows, events, err
			}
			rows, events, err := run()
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
			if got := runs.Load(); got != int64(tc.wantRuns) {
				t.Errorf("%d cells ran, want %d", got, tc.wantRuns)
			}
			if store.Misses() != tc.wantMisses || store.Hits() != tc.wantHits {
				t.Errorf("%d misses, %d hits; want %d, %d", store.Misses(), store.Hits(), tc.wantMisses, tc.wantHits)
			}
			if err != nil {
				return
			}
			for i, v := range tc.values {
				if rows[i] != 10*v+5 {
					t.Fatalf("rows = %v, not in the order of cells %v", rows, tc.values)
				}
			}
			if len(events) != len(tc.values) {
				t.Errorf("%d cell events for %d cells", len(events), len(tc.values))
			}
			if !tc.warm {
				return
			}
			store.ResetStats()
			warmRows, warmEvents, err := run()
			if err != nil || fmt.Sprint(warmRows) != fmt.Sprint(rows) || store.Misses() != 0 {
				t.Errorf("warm run: rows %v, %d misses, err %v; cold rows %v", warmRows, store.Misses(), err, rows)
			}
			if fmt.Sprint(warmEvents) != fmt.Sprint(events) {
				t.Errorf("warm cell events %v, cold %v", warmEvents, events)
			}
		})
	}
}
