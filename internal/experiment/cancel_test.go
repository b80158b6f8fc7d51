package experiment

// Cancellation inside a cell. Options.interrupted is polled between
// cells, and a fig8million cell runs for as long as the whole job: a
// canceled run must also come back from the middle of one, promptly, with
// the context's error, leaving nothing running.

import (
	"context"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tcptrim/internal/sim"
)

// cancelAfter is a Progress hook that cancels a run from inside it, at
// the trigger-th completed response, and counts how many more the
// simulation completes before it gives up. Counting in simulated events
// and not in host time keeps the test exact on a busy machine.
type cancelAfter struct {
	trigger int64
	cancel  context.CancelFunc
	seen    atomic.Int64
}

func (c *cancelAfter) Publish(ev ProgressEvent) {
	if ev.Kind == "responses" && c.seen.Add(1) == c.trigger {
		c.cancel()
	}
}

func TestCancelInsideMillionCell(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	hook := &cancelAfter{trigger: 500, cancel: cancel}
	// One protocol, so one cell: the poll between cells comes before the
	// cancellation and cannot be what notices it.
	res, err := RunMillion([]Protocol{ProtoTRIM}, MillionSmoke, Options{Context: ctx, Progress: hook})
	cancel()
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("canceled inside the cell, RunMillion returned %v, %v", res, err)
	}
	// The release window spreads 9,900 responses over a second, a hundred
	// to a slice of runSlice: the run may finish the slice the
	// cancellation fell in, not start many more.
	overshoot := hook.seen.Load() - hook.trigger
	perSlice := int64(MillionSmoke.Flows()) * int64(runSlice) / int64(MillionSmoke.Window)
	t.Logf("%d responses completed after the cancellation (%d to a slice)", overshoot, perSlice)
	if overshoot > 2*perSlice {
		t.Errorf("the run went on for %d responses after it was canceled, over %d to a slice", overshoot, perSlice)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines before the run, %d after it was canceled", before, after)
	}
}

// TestStopInsideRunEndsItAtTheSameInstant: cutting a run into slices
// must not move where a stop from inside it ends it, whether the stopping
// event falls inside a slice or exactly on a boundary, and a run nobody
// stops must reach its horizon exactly.
func TestStopInsideRunEndsItAtTheSameInstant(t *testing.T) {
	for _, stopAt := range []time.Duration{0, 3 * runSlice, 3*runSlice + 1234, 7*runSlice - 1} {
		env := newSimEnv(Options{})
		horizon := 10*runSlice + 77
		var fired []time.Duration
		for _, at := range []time.Duration{1, 3 * runSlice, 3*runSlice + 1234, 7*runSlice - 1, 9 * runSlice} {
			at := at
			_, err := env.sched.At(sim.At(at), func() {
				fired = append(fired, at)
				if at == stopAt {
					env.stop()
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := env.runUntil(sim.At(horizon)); err != nil {
			t.Fatal(err)
		}
		want, last := horizon, 9*runSlice
		if stopAt != 0 {
			want, last = stopAt, stopAt
		}
		if now := time.Duration(env.sched.Now()); now != want || fired[len(fired)-1] != last {
			t.Errorf("stop at %v: run ended at %v after events %v; want %v", stopAt, now, fired, want)
		}
	}
}

// canceledCtx is a context that is already canceled and counts how often
// the run asks it: runUntil asks once after each slice, so one question
// means the cell gave up after its first slice.
type canceledCtx struct {
	context.Context
	polls int
}

func (c *canceledCtx) Err() error {
	c.polls++
	return context.Canceled
}

// TestCanceledCellsStopAfterOneSlice: cells that build their own scenario
// poll the context inside the cell, not only between cells. An aqmsweep
// cell otherwise runs to its 20 s simulated deadline.
func TestCanceledCellsStopAfterOneSlice(t *testing.T) {
	for name, cell := range map[string]func(Options) error{
		"aqmsweep": func(o Options) error {
			_, err := runAQMSweepCell(ProtoTRIM, DefaultAQMDisciplines[0], 8, 1, o)
			return err
		},
		"ext-loss": func(o Options) error {
			_, err := runLossCell("TCP", 1, 1, o)
			return err
		},
	} {
		ctx := &canceledCtx{Context: context.Background()}
		if err := cell(Options{Context: ctx}); !errors.Is(err, context.Canceled) || ctx.polls != 1 {
			t.Errorf("%s cell under a canceled context: %v after %d slices, want %v after 1",
				name, err, ctx.polls, context.Canceled)
		}
	}
}

// TestOnlySimEnvMakesSchedulers: a runner that builds its own scheduler,
// or calls into a package that does, never looks at Options.Context
// inside a cell, so a canceled job keeps simulating, and builds it with
// the default configuration whatever the run's is, so a lanes-off render
// of it fires its pipes from the lanes all the same. Outside the tests,
// every scheduler under internal/ comes from newSimEnv.
func TestOnlySimEnvMakesSchedulers(t *testing.T) {
	files, err := filepath.Glob("../*/*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") || name == filepath.Join("..", "experiment", "simenv.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && strings.HasPrefix(sel.Sel.Name, "NewScheduler") {
				if id, ok := sel.X.(*ast.Ident); ok && id.Name == "sim" {
					t.Errorf("%s: sim.%s outside simenv.go; take the scheduler from newSimEnv", fset.Position(sel.Pos()), sel.Sel.Name)
				}
			}
			return true
		})
	}
}

// TestOnlySweepFansOutCells: a runner that hand-rolls its cell loop
// decides on its own which cells it caches, what it keys them by, whether
// it stops when canceled and what progress it reports. Outside the sweep
// (runner.go), only impairment.go, whose one cell replays its series on a
// hit, and million.go, whose full-scale cells must not run side by side,
// fan out cells themselves; cellcache.go and progress.go define what they
// call.
func TestOnlySweepFansOutCells(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	exempt := map[string]bool{"runner.go": true, "impairment.go": true, "million.go": true,
		"cellcache.go": true, "progress.go": true}
	fanOut := map[string]bool{"RunTrials": true, "RunSeededTrials": true, "cachedCell": true,
		"cells": true, "interrupted": true}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") || exempt[name] {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fun := call.Fun
			if ix, ok := fun.(*ast.IndexExpr); ok { // cachedCell[T](...)
				fun = ix.X
			}
			var called string
			switch fn := fun.(type) {
			case *ast.Ident:
				called = fn.Name
			case *ast.SelectorExpr: // opts.cells(...), opts.interrupted()
				called = fn.Sel.Name
			}
			if fanOut[called] {
				t.Errorf("%s: %s outside the sweep; build the cells and call sweep", fset.Position(call.Pos()), called)
			}
			return true
		})
	}
}

// TestOnlyScenarioBuildsCells: a cell that wires its own topology, fleet,
// T-RACKs agent or invariant checker decides on its own the ECN, pacing
// rate, AQM seed and run order the scenario kit decides for every other
// cell. Outside scenario.go only five cells build their world by hand,
// each for its reason: fattree.go (each server picks a random per-pod
// sink), scatter.go (request and response connections come in pairs),
// extensions.go (ext-deadline's policy depends on the flow's index, and a
// fleet's NewCC must be pure), multihop.go (group C pairs one-to-one with
// group D) and convergence.go (1.1 Gbps sender links, chunked flows).
func TestOnlyScenarioBuildsCells(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	exempt := map[string]bool{"scenario.go": true, "fattree.go": true, "scatter.go": true,
		"extensions.go": true, "multihop.go": true, "convergence.go": true}
	builds := map[string]bool{"httpapp.NewFleet": true, "hybrid.NewFleet": true,
		"topology.NewStar": true, "topology.NewTwoLevelTree": true, "netsim.AttachTRACKs": true}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") || exempt[name] {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			called := sel.Sel.Name
			if pkg, ok := sel.X.(*ast.Ident); ok {
				called = pkg.Name + "." + called
			}
			if builds[called] || sel.Sel.Name == "ScheduleInvariantChecks" {
				t.Errorf("%s: %s outside the scenario kit; declare a scenario and build it", fset.Position(call.Pos()), called)
			}
			return true
		})
	}
}
