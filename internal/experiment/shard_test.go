package experiment

// Differential determinism proof at the experiment layer: a runner shards
// its trials across a pool of min(trials, GOMAXPROCS) workers, each trial
// on a scheduler of its own, and must render byte-identical tables at any
// pool size. These tests sweep GOMAXPROCS over the paper scenarios
// (including the fault-injection matrix, whose GE loss, flaps, reordering,
// and duplication exercise the fault layer on concurrent trials) and
// require the rendered output — every completion time, timeout count,
// queue statistic, and throughput bin — to match the one-worker run
// exactly.

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"tcptrim/internal/aqm"
	"tcptrim/internal/conformance"
	"tcptrim/internal/sim"
	"tcptrim/internal/tcp"
)

// shardSweep is the worker-pool axis (GOMAXPROCS) every differential test
// sweeps. 1 is the sequential baseline; 8 exceeds most runners' trial
// counts here, so the pool is capped by the trials.
var shardSweep = []int{1, 2, 4, 8}

// withProcs runs fn at GOMAXPROCS k.
func withProcs(k int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(k))
	fn()
}

// renderShardSweep renders one experiment at every pool size and fails
// the test on the first byte difference against one worker.
func renderShardSweep(t *testing.T, name string, render func(opts Options) ([]byte, error)) {
	t.Helper()
	var base []byte
	for _, k := range shardSweep {
		var out []byte
		var err error
		withProcs(k, func() { out, err = render(Options{Seed: 7}) })
		if err != nil {
			t.Fatalf("%s GOMAXPROCS=%d: %v", name, k, err)
		}
		if k == 1 {
			base = out
			continue
		}
		if !bytes.Equal(base, out) {
			t.Errorf("%s diverges at GOMAXPROCS=%d:\n-- GOMAXPROCS=1 --\n%s\n-- GOMAXPROCS=%d --\n%s",
				name, k, base, k, out)
		}
	}
}

func TestImpairmentShardInvariant(t *testing.T) {
	renderShardSweep(t, "impairment", func(opts Options) ([]byte, error) {
		res, err := RunImpairment(ProtoTRIM, opts)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := res.WriteTables(&buf); err != nil {
			return nil, err
		}
		// The rendered table omits the traced series; fold their points in
		// so a sampler reading the wrong trial cannot hide.
		fmt.Fprintf(&buf, "cwnd=%v goodput=%v\n",
			res.TracedCwnd.Points(), res.TracedThroughput.Points())
		return buf.Bytes(), nil
	})
}

func TestConcurrencyShardInvariant(t *testing.T) {
	renderShardSweep(t, "concurrency", func(opts Options) ([]byte, error) {
		res, err := RunConcurrency(ProtoTCP, []int{2}, 4, opts)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		err = res.WriteTables(&buf)
		return buf.Bytes(), err
	})
}

func TestLargeScaleShardInvariant(t *testing.T) {
	renderShardSweep(t, "largescale", func(opts Options) ([]byte, error) {
		opts.Reps = 1
		res, err := RunLargeScale([]Protocol{ProtoTRIM}, []int{3}, opts)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		err = res.WriteTables(&buf)
		return buf.Bytes(), err
	})
}

func TestFatTreeShardInvariant(t *testing.T) {
	renderShardSweep(t, "fattree", func(opts Options) ([]byte, error) {
		res, err := RunFatTree([]Protocol{ProtoTRIM}, []int{4}, opts)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		err = res.WriteTables(&buf)
		return buf.Bytes(), err
	})
}

// TestResilienceMatrixShardInvariant is the fault-scenario property test:
// the resilience matrix (GE bursty loss, a link flap, bounded reordering,
// and duplication on the bottleneck, invariant checker armed) must
// produce identical rows at every pool size.
func TestResilienceMatrixShardInvariant(t *testing.T) {
	renderShardSweep(t, "resilience", func(opts Options) ([]byte, error) {
		// [:3] spans clean, GE+reorder+dup (mild), and GE+flap+reorder+dup
		// (moderate) — every fault class the matrix injects.
		res, err := RunResilience([]Protocol{ProtoTRIM}, DefaultFaultIntensities[:3], opts)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		err = res.WriteTables(&buf)
		return buf.Bytes(), err
	})
}

// TestRecoverySweepShardInvariant covers the recovery × AQM × fault
// sweep, whose T-RACKs cells route switch-agent signal injections and
// RACK-TLP cells route probe timers through each cell's scheduler — the
// rendered matrix (goodput, FCT percentiles, retransmission breakdowns,
// recovery times) must not depend on the pool size.
func TestRecoverySweepShardInvariant(t *testing.T) {
	renderShardSweep(t, "recoverysweep", func(opts Options) ([]byte, error) {
		res, err := RunRecoverySweep(tcp.RecoveryNames(), []string{"droptail"},
			[]FaultIntensity{DefaultFaultIntensities[2]},
			[]int{aqm.TinyBufferPackets}, opts)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		err = res.WriteTables(&buf)
		return buf.Bytes(), err
	})
}

func TestARCTShardInvariant(t *testing.T) {
	renderShardSweep(t, "arct", func(opts Options) ([]byte, error) {
		res, err := RunARCT([]Protocol{ProtoTRIM}, []int{64 << 10}, opts)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		err = res.WriteTables(&buf)
		return buf.Bytes(), err
	})
}

// TestMillionSmokeShardInvariant: the million-connection runner at smoke
// scale renders the same table at every pool size (the host-measured
// resource lines after it are not simulated output).
func TestMillionSmokeShardInvariant(t *testing.T) {
	renderShardSweep(t, "fig8million-smoke", func(opts Options) ([]byte, error) {
		var buf bytes.Buffer
		err := Run("fig8million-smoke", opts, &buf)
		table, _, _ := bytes.Cut(buf.Bytes(), []byte("\n\n"))
		return table, err
	})
}

// TestConformanceShardedSweep shadow-executes the oracle's randomized
// scenario matrix sharded across the trial pool, at every pool size and
// once more with the FIFO lanes switched off: every scenario must report
// zero divergences and the identical activity counters each time — the
// TRIM policy cannot tell which worker, or which event container, carried
// its packets.
func TestConformanceShardedSweep(t *testing.T) {
	const seeds = 64
	sweep := func() []*conformance.Result {
		res, err := RunTrials(seeds, func(i int) (*conformance.Result, error) {
			return conformance.RunScenario(conformance.GenScenario(SplitSeed(11, i)))
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	var base []*conformance.Result
	check := func(arm string, results []*conformance.Result) {
		for i, res := range results {
			seed := SplitSeed(11, i)
			if res.Total != 0 {
				t.Fatalf("seed %d %s: %d divergences, first: %v", seed, arm, res.Total, res.Divergences[0])
			}
			if base == nil {
				continue
			}
			b := base[i]
			if res.Hooks != b.Hooks || res.ProbeRounds != b.ProbeRounds ||
				res.ProbeTimeouts != b.ProbeTimeouts ||
				res.QueueReductions != b.QueueReductions ||
				res.Timeouts != b.Timeouts || res.TrainsDone != b.TrainsDone {
				t.Fatalf("seed %d %s: counters differ from the sequential run:\n%+v\nvs\n%+v", seed, arm, res, b)
			}
		}
	}
	for _, k := range shardSweep {
		var results []*conformance.Result
		withProcs(k, func() { results = sweep() })
		check(fmt.Sprintf("GOMAXPROCS=%d", k), results)
		if base == nil {
			base = results
		}
	}
	var wheel []*conformance.Result
	sim.WheelOnly(func() { wheel = sweep() })
	check("wheel only", wheel)
}
