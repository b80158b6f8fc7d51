// Benchmarks regenerating every table and figure of the paper's
// evaluation (plus the motivation experiments and the DESIGN.md
// ablations). Each benchmark runs the corresponding experiment end to end
// and reports the headline quantities as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation. Absolute values are simulator-scale;
// EXPERIMENTS.md records the paper-vs-measured comparison for each.
package tcptrim_test

import (
	"io"
	"testing"
	"time"

	"tcptrim/internal/cellcache"
	"tcptrim/internal/experiment"
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// BenchmarkFig1PacketTrains regenerates the Fig. 1 packet-train trace
// analysis on synthetic ON/OFF traffic.
func BenchmarkFig1PacketTrains(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunTrainAnalysis(experiment.Options{Seed: int64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Trains), "trains")
		b.ReportMetric(res.MeanLongPackets, "LPT-pkts")
	}
}

// BenchmarkFig2Distributions regenerates the Fig. 2 size/gap CDF check.
func BenchmarkFig2Distributions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunTrainAnalysis(experiment.Options{Seed: int64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.TinyFraction*100, "pct<=4KB")
		b.ReportMetric(res.LargeFraction*100, "pct>128KB")
	}
}

// BenchmarkFig4RenoImpairment regenerates Fig. 4: TCP's inherited-window
// collapse on the Section II.B workload.
func BenchmarkFig4RenoImpairment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunImpairment(experiment.ProtoTCP, experiment.Options{Seed: int64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.TotalTimeouts()), "timeouts")
		b.ReportMetric(res.CwndAtLPTStart[4], "cwnd@LPT")
	}
}

// BenchmarkFig5Concurrency regenerates Fig. 5: TCP ACT vs number of
// concurrent SPTs under 0/1/2 long flows.
func BenchmarkFig5Concurrency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunConcurrency(experiment.ProtoTCP, []int{0, 1, 2}, 10,
			experiment.Options{Seed: int64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		worst := res.Cell(2, 10)
		b.ReportMetric(ms(worst.ACT), "ACT-2x10-ms")
		b.ReportMetric(ms(worst.Max), "maxCT-ms")
	}
}

// BenchmarkFig6TrimImpairment regenerates Fig. 6: TRIM on the same
// workload (no timeouts, tiny queue).
func BenchmarkFig6TrimImpairment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunImpairment(experiment.ProtoTRIM, experiment.Options{Seed: int64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.TotalTimeouts()), "timeouts")
		b.ReportMetric(float64(res.QueueMax), "queue-max")
	}
}

// BenchmarkFig7TrimConcurrency regenerates Fig. 7: TRIM ACT with 2 long
// flows.
func BenchmarkFig7TrimConcurrency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunConcurrency(experiment.ProtoTRIM, []int{2}, 10,
			experiment.Options{Seed: int64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(ms(res.Cell(2, 10).ACT), "ACT-2x10-ms")
	}
}

// BenchmarkFig8LargeScale regenerates Fig. 8(b) at a reduced default
// scale (5 and 15 ToRs, one repetition); run cmd/trimsim -run fig8 for
// the full sweep.
func BenchmarkFig8LargeScale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunLargeScale(
			[]experiment.Protocol{experiment.ProtoTCP, experiment.ProtoTRIM},
			[]int{5, 15}, experiment.Options{Seed: int64(i) + 1, Reps: 1})
		if err != nil {
			b.Fatal(err)
		}
		tcpACT := res.Row(experiment.ProtoTCP, 15).ACT
		trimACT := res.Row(experiment.ProtoTRIM, 15).ACT
		b.ReportMetric(ms(tcpACT), "TCP-ACT-ms")
		b.ReportMetric(ms(trimACT), "TRIM-ACT-ms")
		if trimACT > 0 {
			b.ReportMetric(100*(1-trimACT.Seconds()/tcpACT.Seconds()), "reduction-pct")
		}
	}
}

// BenchmarkFig8MillionSmoke regenerates fig8million at its CI scale
// (10k connections, hybrid fidelity) and reports the scale layer's
// headline quantities: heap bytes and wall-clock nanoseconds per
// connection, plus the materialized high-water mark that the flow-level
// fast-forward keeps orders of magnitude below the fleet size. Run
// cmd/trimsim -run fig8million for the full million-connection sweep.
func BenchmarkFig8MillionSmoke(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunMillion(
			[]experiment.Protocol{experiment.ProtoTRIM},
			experiment.MillionSmoke, experiment.Options{Seed: int64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		row := res.Rows[0]
		b.ReportMetric(row.BytesPerConn, "B/conn")
		b.ReportMetric(row.NsPerConn, "ns/conn")
		b.ReportMetric(float64(row.PeakLive), "peak-live")
		b.ReportMetric(ms(row.ACT), "ACT-ms")
	}
}

// BenchmarkFig8MillionOverload is the one-command profile of the hybrid
// layer's overloaded regime: 400k connections released over 1.2 s, the
// full fig8million run's release rate in a run 2.5× shorter, so tens of
// thousands of connections are materialized at once and the driver steps
// at every few microseconds of simulated time. Both protocols, as in the
// full run (plain TCP overloads harder: more timeouts, a higher live
// peak).
//
//	go test -run '^$' -bench Fig8MillionOverload -benchtime 1x -cpuprofile cpu.out .
func BenchmarkFig8MillionOverload(b *testing.B) {
	overload := experiment.MillionConfig{
		ToRs: 25, ServersPerToR: 40, ConnsPerServer: 400,
		LPTsPerToR: 1, Window: 1200 * time.Millisecond, Drain: 2 * time.Second,
	}
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunMillion(
			[]experiment.Protocol{experiment.ProtoTCP, experiment.ProtoTRIM},
			overload, experiment.Options{Seed: int64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			p := string(row.Protocol)
			b.ReportMetric(float64(row.PeakLive), p+"-peak-live")
			b.ReportMetric(row.BytesPerConn, p+"-B/conn")
			b.ReportMetric(row.NsPerConn, p+"-ns/conn")
		}
	}
}

// BenchmarkFig9Properties regenerates Fig. 9(a)–(d): queue behaviour,
// drops and goodput for 2–10 concurrent flows.
func BenchmarkFig9Properties(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunProperties(
			[]experiment.Protocol{experiment.ProtoTCP, experiment.ProtoTRIM},
			2, 10, experiment.Options{Seed: int64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		tcp10 := res.Row(experiment.ProtoTCP, 10)
		trim10 := res.Row(experiment.ProtoTRIM, 10)
		b.ReportMetric(tcp10.AvgQueue, "TCP-AQL")
		b.ReportMetric(trim10.AvgQueue, "TRIM-AQL")
		b.ReportMetric(float64(trim10.Drops), "TRIM-drops")
		b.ReportMetric(trim10.Utilization*100, "TRIM-util-pct")
	}
}

// BenchmarkFig10Convergence regenerates Fig. 10: staggered long flows
// converging to the fair share.
func BenchmarkFig10Convergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		all, err := experiment.RunConvergence([]experiment.Protocol{experiment.ProtoTRIM}, experiment.Options{Seed: int64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		res := all[0]
		b.ReportMetric(res.JainAllActive, "jain")
		b.ReportMetric(float64(res.Timeouts), "timeouts")
	}
}

// BenchmarkFig11MultiHop regenerates Fig. 11: per-group throughput on
// the dual-bottleneck topology.
func BenchmarkFig11MultiHop(b *testing.B) {
	for i := 0; i < b.N; i++ {
		all, err := experiment.RunMultiHop([]experiment.Protocol{experiment.ProtoTRIM}, experiment.Options{Seed: int64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		res := all[0]
		b.ReportMetric(res.MeanMbps["A"], "A-Mbps")
		b.ReportMetric(res.MeanMbps["B"], "B-Mbps")
		b.ReportMetric(res.MeanMbps["C"], "C-Mbps")
	}
}

// BenchmarkFig12FatTree regenerates Fig. 12 at k=4 (run cmd/trimsim
// -run fig12 for the full pod sweep).
func BenchmarkFig12FatTree(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunFatTree(experiment.FatTreeProtocols, []int{4},
			experiment.Options{Seed: int64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(ms(res.Row(experiment.ProtoTCP, 4).MaxCT), "TCP-maxCT-ms")
		b.ReportMetric(ms(res.Row(experiment.ProtoTRIM, 4).MaxCT), "TRIM-maxCT-ms")
	}
}

// BenchmarkTable1Timeouts regenerates Table I at k=6.
func BenchmarkTable1Timeouts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunFatTree(experiment.FatTreeProtocols, []int{6},
			experiment.Options{Seed: int64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Row(experiment.ProtoTCP, 6).Timeouts), "TCP-timeouts")
		b.ReportMetric(float64(res.Row(experiment.ProtoDCTCP, 6).Timeouts), "DCTCP-timeouts")
		b.ReportMetric(float64(res.Row(experiment.ProtoL2DCT, 6).Timeouts), "L2DCT-timeouts")
		b.ReportMetric(float64(res.Row(experiment.ProtoTRIM, 6).Timeouts), "TRIM-timeouts")
	}
}

// BenchmarkFig13ARCT regenerates Fig. 13(a): ARCT vs mean response size
// on the simulated 100 Mbps testbed.
func BenchmarkFig13ARCT(b *testing.B) {
	sizes := []int{32 << 10, 128 << 10, 512 << 10}
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunARCT(
			[]experiment.Protocol{experiment.ProtoCUBIC, experiment.ProtoTRIM},
			sizes, experiment.Options{Seed: int64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(ms(res.Row(experiment.ProtoCUBIC, 32<<10).ARCT), "CUBIC-32K-ms")
		b.ReportMetric(ms(res.Row(experiment.ProtoTRIM, 32<<10).ARCT), "TRIM-32K-ms")
	}
}

// BenchmarkFig13WebService regenerates Fig. 13(b)–(e): the web-service
// scenario's completion-time scatter and CDF.
func BenchmarkFig13WebService(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunWebService(experiment.WebServiceProtocols,
			experiment.Options{Seed: int64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		trim := res.Row(experiment.ProtoTRIM)
		b.ReportMetric(ms(trim.BandMax), "TRIM-bandmax-ms")
		b.ReportMetric(trim.FractionUnder25ms*100, "TRIM-pct<=25ms")
	}
}

// BenchmarkAQMSweep regenerates the TRIM-vs-AQM interplay sweep at its
// CI scale (TRIM × four disciplines × lowest concurrency); run
// cmd/trimsim -run aqmsweep for the full protocol × concurrency cross.
func BenchmarkAQMSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunAQMSweep(
			[]experiment.Protocol{experiment.ProtoTRIM},
			experiment.DefaultAQMDisciplines,
			experiment.AQMSweepConcurrency[:1],
			experiment.Options{Seed: int64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			b.ReportMetric(ms(row.MeanFCT), "TRIM-"+row.Discipline+"-FCT-ms")
		}
	}
}

// BenchmarkAQMSweepSmokeCold regenerates the aqmsweep CI slice against
// an empty cell cache each iteration: every cell simulates. Pairs with
// BenchmarkAQMSweepSmokeWarm; the ns/op ratio is the end-to-end warm
// speedup of the cell-memoization layer.
func BenchmarkAQMSweepSmokeCold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		store := cellcache.NewMemory()
		_, err := experiment.RunAQMSweep(
			[]experiment.Protocol{experiment.ProtoTRIM},
			experiment.DefaultAQMDisciplines,
			experiment.AQMSweepConcurrency[:1],
			experiment.Options{Seed: 1, Cache: store})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(store.Misses()), "cells-simulated")
	}
}

// BenchmarkAQMSweepSmokeWarm regenerates the same slice against a
// pre-filled cell cache: every cell is reassembled from the store and
// nothing simulates.
func BenchmarkAQMSweepSmokeWarm(b *testing.B) {
	store := cellcache.NewMemory()
	if _, err := experiment.RunAQMSweep(
		[]experiment.Protocol{experiment.ProtoTRIM},
		experiment.DefaultAQMDisciplines,
		experiment.AQMSweepConcurrency[:1],
		experiment.Options{Seed: 1, Cache: store}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store.ResetStats()
		_, err := experiment.RunAQMSweep(
			[]experiment.Protocol{experiment.ProtoTRIM},
			experiment.DefaultAQMDisciplines,
			experiment.AQMSweepConcurrency[:1],
			experiment.Options{Seed: 1, Cache: store})
		if err != nil {
			b.Fatal(err)
		}
		if store.Misses() != 0 {
			b.Fatalf("warm iteration simulated %d cells", store.Misses())
		}
		b.ReportMetric(float64(store.Hits()), "cells-cached")
	}
}

// BenchmarkWarmSweepPass re-runs the four sweeps of the repo benchmark's
// cache_warm workload (recoverysweep, resilience, resilience under red and
// favour: 72 cells) against a warm memory store: one op is one pass,
// nothing simulates, and each run is one whole-run hit written as stored,
// so ns/op and allocs/op are the read side of experiment.Run.
func BenchmarkWarmSweepPass(b *testing.B) {
	store := cellcache.NewMemory()
	pass := func() {
		for _, sw := range []struct{ id, aqm string }{
			{"recoverysweep", ""}, {"resilience", ""}, {"resilience", "red"}, {"resilience", "favour"},
		} {
			opts := experiment.Options{Seed: 1, AQM: sw.aqm, Cache: store}
			if err := experiment.Run(sw.id, opts, io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	}
	pass() // cold fill
	store.ResetStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
	if store.Misses() != 0 {
		b.Fatalf("warm passes simulated %d cells", store.Misses())
	}
	b.ReportMetric(float64(store.Runs().Hits)/float64(b.N), "runs-stored")
}

// BenchmarkEq22KSweep regenerates the Section III.B threshold guideline
// validation.
func BenchmarkEq22KSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunKSweep([]float64{0.25, 1, 4}, experiment.Options{Seed: int64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[0].Utilization*100, "util-quarterK-pct")
		b.ReportMetric(res.Rows[1].Utilization*100, "util-Kstar-pct")
		b.ReportMetric(res.Rows[2].AvgQueue, "queue-4Kstar")
	}
}

// BenchmarkAblationInheritance compares window-inheritance policies
// (blind / restart / probe-based) on the Fig. 4 workload.
func BenchmarkAblationInheritance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunInheritanceAblation(experiment.Options{Seed: int64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(ms(res.Row(experiment.ProtoTCP).LPTMean), "TCP-LPT-ms")
		b.ReportMetric(ms(res.Row(experiment.ProtoGIP).LPTMean), "GIP-LPT-ms")
		b.ReportMetric(ms(res.Row(experiment.ProtoTRIM).LPTMean), "TRIM-LPT-ms")
	}
}

// BenchmarkAblationMechanisms isolates TRIM's probing vs queue control on
// the concurrency worst case.
func BenchmarkAblationMechanisms(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunMechanismAblation(experiment.Options{Seed: int64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(ms(res.Row(experiment.ProtoTRIM).ACT), "full-ms")
		b.ReportMetric(ms(res.Row(experiment.ProtoTRIMNoProbe).ACT), "noprobe-ms")
		b.ReportMetric(ms(res.Row(experiment.ProtoTRIMNoQueue).ACT), "noqueue-ms")
	}
}

// BenchmarkAblationAlpha sweeps the smoothed-RTT gain.
func BenchmarkAblationAlpha(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunAlphaAblation([]float64{0.125, 0.25, 0.5},
			experiment.Options{Seed: int64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[1].AvgQueue, "AQL-alpha0.25")
	}
}

// BenchmarkAblationBuffer sweeps switch-buffer depth: TRIM's queue is
// buffer-independent while drop-tail TCP degrades.
func BenchmarkAblationBuffer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunBufferAblation(
			[]experiment.Protocol{experiment.ProtoTCP, experiment.ProtoTRIM},
			[]int{20, 100}, experiment.Options{Seed: int64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Row(experiment.ProtoTRIM, 20).AvgQueue, "TRIM-AQL-20")
		b.ReportMetric(res.Row(experiment.ProtoTRIM, 100).AvgQueue, "TRIM-AQL-100")
		b.ReportMetric(float64(res.Row(experiment.ProtoTCP, 20).Drops), "TCP-drops-20")
	}
}

// BenchmarkExtDeadline regenerates the D2TCP deadline-incast extension.
func BenchmarkExtDeadline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunDeadline(experiment.Options{Seed: int64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Row("DCTCP").TightMet), "DCTCP-tight-met")
		b.ReportMetric(float64(res.Row("D2TCP").TightMet), "D2TCP-tight-met")
	}
}

// BenchmarkExtDelayBased regenerates the Vegas-vs-TRIM inheritance
// comparison.
func BenchmarkExtDelayBased(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunDelayBased(experiment.Options{Seed: int64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Row("Vegas").Timeouts), "Vegas-timeouts")
		b.ReportMetric(float64(res.Row("TCP-TRIM").Timeouts), "TRIM-timeouts")
	}
}

// BenchmarkExtLossRobustness regenerates the random-loss sweep at 1%.
func BenchmarkExtLossRobustness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunLossRobustness([]float64{1}, experiment.Options{Seed: int64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(ms(res.Row("TCP", 1).P99), "TCP-P99-ms")
		b.ReportMetric(ms(res.Row("TCP+SACK", 1).P99), "TCP+SACK-P99-ms")
	}
}

// BenchmarkExtJitter regenerates the RTT-jitter robustness sweep.
func BenchmarkExtJitter(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunJitter(
			[]time.Duration{0, 100 * time.Microsecond, 300 * time.Microsecond},
			experiment.Options{Seed: int64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[1].Utilization*100, "util-100us-pct")
		b.ReportMetric(res.Rows[2].Utilization*100, "util-300us-pct")
	}
}

// BenchmarkExtScatterGather regenerates the request-driven
// partition/aggregation comparison.
func BenchmarkExtScatterGather(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunScatterGather(
			[]experiment.Protocol{experiment.ProtoTCP, experiment.ProtoTRIM},
			experiment.Options{Seed: int64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(ms(res.Row(experiment.ProtoTCP).MeanBarrier), "TCP-barrier-ms")
		b.ReportMetric(ms(res.Row(experiment.ProtoTRIM).MeanBarrier), "TRIM-barrier-ms")
	}
}
