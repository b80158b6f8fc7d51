package experiment

// Differential determinism proof for CI-sized slices of the runners that
// TestRunnerGoldens renders only under -golden.all: a runner shards its
// trials across a pool of min(trials, GOMAXPROCS) workers, each trial on
// a scheduler of its own, and must render byte-identical tables at any
// pool size.

import (
	"bytes"
	"io"
	"runtime"
	"testing"
)

// shardSweep is the worker-pool axis (GOMAXPROCS) every differential test
// sweeps. 1 is the sequential baseline; 8 exceeds most runners' trial
// counts here, so the pool is capped by the trials.
var shardSweep = []int{1, 2, 4, 8}

// renderShardSweep renders one experiment at every pool size and fails
// the test on the first byte difference against one worker.
func renderShardSweep(t *testing.T, name string, render func(opts Options) ([]byte, error)) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var base []byte
	for _, k := range shardSweep {
		runtime.GOMAXPROCS(k)
		out, err := render(Options{Seed: 7})
		if err != nil {
			t.Fatalf("%s GOMAXPROCS=%d: %v", name, k, err)
		}
		if k == 1 {
			base = out
		} else if !bytes.Equal(base, out) {
			t.Errorf("%s diverges at GOMAXPROCS=%d:\n-- GOMAXPROCS=1 --\n%s\n-- GOMAXPROCS=%d --\n%s",
				name, k, base, k, out)
		}
	}
}

// tablesOf renders a runner's result as its tables.
func tablesOf[R interface{ WriteTables(io.Writer) error }](res R, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = res.WriteTables(&buf)
	return buf.Bytes(), err
}

// fig8Slice is fig8 at 3 ToRs, TRIM only, one repetition.
func fig8Slice(opts Options) ([]byte, error) {
	opts.Reps = 1
	return tablesOf(RunLargeScale([]Protocol{ProtoTRIM}, []int{3}, opts))
}

// table1Slice is table1 at k = 4, TRIM only.
func table1Slice(opts Options) ([]byte, error) {
	return tablesOf(RunFatTree([]Protocol{ProtoTRIM}, []int{4}, opts))
}

// millionSmokeTable is fig8million-smoke's table, not the host-measured
// resource lines after it.
func millionSmokeTable(opts Options) ([]byte, error) {
	var buf bytes.Buffer
	err := Run("fig8million-smoke", opts, &buf)
	return tableOnly(buf.Bytes()), err
}

func TestLargeScaleShardInvariant(t *testing.T) { renderShardSweep(t, "largescale", fig8Slice) }

func TestFatTreeShardInvariant(t *testing.T) { renderShardSweep(t, "fattree", table1Slice) }

func TestARCTShardInvariant(t *testing.T) {
	renderShardSweep(t, "arct", func(opts Options) ([]byte, error) {
		return tablesOf(RunARCT([]Protocol{ProtoTRIM}, []int{64 << 10}, opts))
	})
}

func TestMillionSmokeShardInvariant(t *testing.T) {
	renderShardSweep(t, "fig8million-smoke", millionSmokeTable)
}
