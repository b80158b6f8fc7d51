package experiment

// Shape-assertion tests: each test pins the qualitative claim the paper
// makes for a figure or table, so a regression in any protocol or in the
// simulator that would invalidate the reproduction fails loudly. Absolute
// values are simulator-scale; the asserted relations are the paper's.

import (
	"testing"
	"time"
)

func TestPaperFig4BlindInheritanceCollapses(t *testing.T) {
	res, err := RunImpairment(ProtoTCP, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// "the inherited window sizes in connection 1, 2, 3, and 4 all
	// exceed 850 packets" / "the window size is close to 900".
	for i, w := range res.CwndAtLPTStart {
		if w < 500 {
			t.Errorf("conn %d inherited cwnd = %.0f, expected a huge stale window", i+1, w)
		}
	}
	// "most of the connections involve the occurrence of TCP timeouts".
	withTimeouts := 0
	for _, n := range res.TimeoutsPerConn {
		if n > 0 {
			withTimeouts++
		}
	}
	if withTimeouts < 3 {
		t.Errorf("only %d of 5 connections timed out; the paper reports most do", withTimeouts)
	}
	// The switch buffer overflows.
	if res.QueueDrops == 0 {
		t.Error("no drops despite the inherited-window burst")
	}
}

func TestPaperFig6TrimAvoidsCollapse(t *testing.T) {
	res, err := RunImpairment(ProtoTRIM, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// "None of HTTP connections experiences TCP timeouts".
	if n := res.TotalTimeouts(); n != 0 {
		t.Errorf("TRIM timeouts = %d, want 0", n)
	}
	// "the recorded queue length never exceeds 20 packets ... no packet
	// is dropped".
	if res.QueueMax > 25 {
		t.Errorf("TRIM queue max = %d, want ≈ paper's ≤20", res.QueueMax)
	}
	if res.QueueDrops != 0 {
		t.Errorf("TRIM drops = %d, want 0", res.QueueDrops)
	}
	// "they all finish before 0.6 s".
	if res.AllDoneBy.Seconds() > 0.65 {
		t.Errorf("all done by %v, paper reports before 0.6 s", res.AllDoneBy)
	}
}

func TestPaperFig5VsFig7ConcurrencyGap(t *testing.T) {
	tcpRes, err := RunConcurrency(ProtoTCP, []int{2}, 8, Options{})
	if err != nil {
		t.Fatal(err)
	}
	trimRes, err := RunConcurrency(ProtoTRIM, []int{2}, 8, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// "The average completion time (ACT) in each case is only several
	// milliseconds, while TCP's ACT is up to two orders of magnitude"
	// — we require at least one cell with ≥10× and TRIM always < 10 ms.
	gapSeen := false
	for s := 1; s <= 8; s++ {
		tcpCell, trimCell := tcpRes.Cell(2, s), trimRes.Cell(2, s)
		if trimCell.ACT > 10*time.Millisecond {
			t.Errorf("TRIM ACT at %d SPTs = %v, want a few ms", s, trimCell.ACT)
		}
		if trimCell.Timeouts != 0 {
			t.Errorf("TRIM SPT timeouts at %d SPTs = %d, want 0", s, trimCell.Timeouts)
		}
		if tcpCell.ACT > 10*trimCell.ACT {
			gapSeen = true
		}
	}
	if !gapSeen {
		t.Error("no concurrency cell shows the paper's order-of-magnitude TCP/TRIM gap")
	}
}

func TestPaperFig9QueueControl(t *testing.T) {
	res, err := RunProperties([]Protocol{ProtoTCP, ProtoTRIM}, 2, 10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 9(a): TCP saw-tooths against the buffer ceiling; TRIM keeps a
	// stable small queue.
	tcpTrace, trimTrace := res.QueueTrace[ProtoTCP], res.QueueTrace[ProtoTRIM]
	if tcpTrace.Max() < 99 {
		t.Errorf("TCP queue max = %.0f, should hit the 100-packet buffer", tcpTrace.Max())
	}
	if trimTrace.Max() > 60 {
		t.Errorf("TRIM queue max = %.0f, want small and stable", trimTrace.Max())
	}
	for n := 2; n <= 10; n++ {
		tcpRow, trimRow := res.Row(ProtoTCP, n), res.Row(ProtoTRIM, n)
		// Fig. 9(b): AQL of TCP much higher than TRIM.
		if trimRow.AvgQueue >= tcpRow.AvgQueue {
			t.Errorf("n=%d: TRIM AQL %.1f not below TCP %.1f", n, trimRow.AvgQueue, tcpRow.AvgQueue)
		}
		// Fig. 9(c): "TCP-TRIM does not experience packet loss and TCP
		// timeout at all".
		if trimRow.Drops != 0 || trimRow.Timeouts != 0 {
			t.Errorf("n=%d: TRIM drops=%d timeouts=%d, want 0", n, trimRow.Drops, trimRow.Timeouts)
		}
		if tcpRow.Drops == 0 {
			t.Errorf("n=%d: TCP drops = 0, expected tail drops", n)
		}
		// Fig. 9(d): "bottleneck link utilization is nearly 98%".
		if trimRow.Utilization < 0.97 {
			t.Errorf("n=%d: TRIM utilization %.3f < 0.97", n, trimRow.Utilization)
		}
		if trimRow.GoodputMbps < tcpRow.GoodputMbps {
			t.Errorf("n=%d: TRIM goodput %.0f below TCP %.0f", n, trimRow.GoodputMbps, tcpRow.GoodputMbps)
		}
	}
	// Fig. 9(b): AQL rises with concurrency for both protocols.
	if res.Row(ProtoTRIM, 10).AvgQueue <= res.Row(ProtoTRIM, 2).AvgQueue {
		t.Error("TRIM AQL should rise with the number of concurrent flows")
	}
}

func TestPaperFig10FairConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("long convergence run")
	}
	all, err := RunConvergence([]Protocol{ProtoTRIM}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := all[0]
	// "each of the five connections converges to their fair share
	// quickly".
	if res.JainAllActive < 0.99 {
		t.Errorf("TRIM Jain index = %.4f, want ≈1", res.JainAllActive)
	}
	if res.Timeouts != 0 {
		t.Errorf("TRIM convergence timeouts = %d", res.Timeouts)
	}
	// Shares near 1 Gbps / 5.
	for i, share := range res.MeanShare {
		if share < 150 || share > 250 {
			t.Errorf("c%d share = %.1f Mbps, want ≈195", i+1, share)
		}
	}
}

func TestPaperFig11MultiHopShape(t *testing.T) {
	if testing.Short() {
		t.Skip("long multi-hop run")
	}
	all, err := RunMultiHop([]Protocol{ProtoTRIM}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	trim := all[0]
	// Group A crosses both bottlenecks and gets the least; B and C fill
	// the remaining capacity of their single bottleneck (paper: 342.7 /
	// 638 / 318 Mbps — our C is capacity-consistent rather than
	// matching the paper's anomalous 318, see EXPERIMENTS.md).
	a, bb, c := trim.MeanMbps["A"], trim.MeanMbps["B"], trim.MeanMbps["C"]
	if !(a < bb && a < c) {
		t.Errorf("group A (%.0f) should be the slowest (B %.0f, C %.0f)", a, bb, c)
	}
	if a < 250 || a > 450 {
		t.Errorf("group A = %.0f Mbps, paper reports ≈343", a)
	}
	if bb < 500 {
		t.Errorf("group B = %.0f Mbps, paper reports ≈638", bb)
	}
	// The second bottleneck should be nearly full under TRIM.
	if total := (a + bb) * 10; total < 8500 {
		t.Errorf("bottleneck-2 load = %.0f Mbps, want near 10 Gbps", total)
	}
}

func TestPaperTable1TimeoutOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("fat-tree comparison")
	}
	res, err := RunFatTree(FatTreeProtocols, []int{6}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tcpTO := res.Row(ProtoTCP, 6).Timeouts
	trimTO := res.Row(ProtoTRIM, 6).Timeouts
	dctcpTO := res.Row(ProtoDCTCP, 6).Timeouts
	// Table I: TCP experiences the most timeouts, TRIM always the least.
	if trimTO >= tcpTO {
		t.Errorf("TRIM timeouts %d not below TCP %d", trimTO, tcpTO)
	}
	if dctcpTO >= tcpTO {
		t.Errorf("DCTCP timeouts %d not below TCP %d", dctcpTO, tcpTO)
	}
	if trimTO > dctcpTO {
		t.Errorf("TRIM timeouts %d above DCTCP %d", trimTO, dctcpTO)
	}
	// "the improved ratio comparing to TCP is up to 80%".
	if tcpTO > 0 && float64(trimTO) > 0.4*float64(tcpTO) {
		t.Errorf("TRIM reduction only %d -> %d, paper reports ≈80%%", tcpTO, trimTO)
	}
	// Everyone finishes.
	for _, row := range res.Rows {
		if row.Completed != row.Servers {
			t.Errorf("%s: %d/%d completed", row.Protocol, row.Completed, row.Servers)
		}
	}
}

func TestPaperFig13WebServiceTail(t *testing.T) {
	if testing.Short() {
		t.Skip("web-service scenario")
	}
	res, err := RunWebService(WebServiceProtocols, Options{})
	if err != nil {
		t.Fatal(err)
	}
	trim := res.Row(ProtoTRIM)
	cubic := res.Row(ProtoCUBIC)
	reno := res.Row(ProtoTCP)
	// "all the samples in TCP-TRIM never exceed 25 ms".
	if trim.BandOver25ms != 0 {
		t.Errorf("TRIM 64-256KB samples over 25ms = %d, want 0", trim.BandOver25ms)
	}
	// "in the other two protocols, quite a few samples are higher than
	// 50 ms, and some of them even reach to 250 ms".
	if cubic.BandOver50ms == 0 && reno.BandOver50ms == 0 {
		t.Error("neither CUBIC nor Reno shows >50ms samples")
	}
	if cubic.BandOver250ms == 0 && reno.BandOver250ms == 0 {
		t.Error("neither CUBIC nor Reno shows >250ms samples")
	}
	// "nearly 99% of the response completion times is below 25 ms".
	if trim.FractionUnder25ms < 0.98 {
		t.Errorf("TRIM fraction ≤25ms = %.3f, want ≥0.98", trim.FractionUnder25ms)
	}
	if trim.Timeouts != 0 {
		t.Errorf("TRIM timeouts = %d", trim.Timeouts)
	}
}

func TestPaperFig13aSmallResponses(t *testing.T) {
	if testing.Short() {
		t.Skip("ARCT sweep")
	}
	res, err := RunARCT([]Protocol{ProtoCUBIC, ProtoTRIM}, []int{32 << 10, 64 << 10}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{32 << 10, 64 << 10} {
		cubic := res.Row(ProtoCUBIC, size)
		trim := res.Row(ProtoTRIM, size)
		// "with the help of TCP-TRIM, the response transfer finishes
		// more quickly".
		if trim.ARCT >= cubic.ARCT {
			t.Errorf("size %dKB: TRIM ARCT %v not below CUBIC %v",
				size>>10, trim.ARCT, cubic.ARCT)
		}
		if trim.Timeouts != 0 {
			t.Errorf("size %dKB: TRIM timeouts = %d", size>>10, trim.Timeouts)
		}
	}
}

func TestPaperEq22Guideline(t *testing.T) {
	if testing.Short() {
		t.Skip("K sweep")
	}
	res, err := RunKSweep([]float64{0.25, 1, 4}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	quarter, star, quad := res.Rows[0], res.Rows[1], res.Rows[2]
	// K far below the guideline underutilizes the bottleneck.
	if quarter.Utilization > 0.9 {
		t.Errorf("K=K*/4 utilization %.3f, expected underutilization", quarter.Utilization)
	}
	// K = K* guarantees ≈100% utilization (the paper's claim).
	if star.Utilization < 0.99 {
		t.Errorf("K=K* utilization %.3f, want ≈1", star.Utilization)
	}
	// Larger K only buys queue.
	if quad.AvgQueue <= star.AvgQueue {
		t.Errorf("K=4K* queue %.1f not above K=K* queue %.1f", quad.AvgQueue, star.AvgQueue)
	}
	if star.Drops != 0 {
		t.Errorf("K=K* drops = %d, want 0", star.Drops)
	}
}

func TestPaperFig8Reduction(t *testing.T) {
	if testing.Short() {
		t.Skip("large-scale sweep")
	}
	res, err := RunLargeScale([]Protocol{ProtoTCP, ProtoTRIM}, []int{5}, Options{Reps: 2})
	if err != nil {
		t.Fatal(err)
	}
	tcpRow, trimRow := res.Row(ProtoTCP, 5), res.Row(ProtoTRIM, 5)
	// "TCP-TRIM still reduces the ACT of TCP by up to 80%" (small
	// scale); we require at least a 40% reduction.
	if trimRow.ACT.Seconds() > 0.6*tcpRow.ACT.Seconds() {
		t.Errorf("TRIM ACT %v vs TCP %v: reduction below 40%%", trimRow.ACT, tcpRow.ACT)
	}
	if trimRow.Timeouts != 0 {
		t.Errorf("TRIM timeouts = %d", trimRow.Timeouts)
	}
	if tcpRow.Completed != tcpRow.Scheduled {
		t.Errorf("TCP completed only %d/%d", tcpRow.Completed, tcpRow.Scheduled)
	}
	// At seeds 3 and 7 plain TCP loses lone tail segments sent from an
	// idle window; only an RTO armed on that send lets it finish every SPT.
	for _, seed := range []int64{3, 7} {
		res, err := RunLargeScale([]Protocol{ProtoTCP}, []int{5}, Options{Seed: seed, Reps: 1})
		if err != nil {
			t.Fatal(err)
		}
		if row := res.Row(ProtoTCP, 5); row.Completed != row.Scheduled {
			t.Errorf("seed %d: TCP completed only %d/%d", seed, row.Completed, row.Scheduled)
		}
	}
}

func TestPaperFig2Bands(t *testing.T) {
	res, err := RunTrainAnalysis(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.TinyFraction < 0.15 || res.TinyFraction > 0.25 {
		t.Errorf("tiny band = %.3f, want ≈0.20", res.TinyFraction)
	}
	if res.LargeFraction < 0.07 || res.LargeFraction > 0.13 {
		t.Errorf("large band = %.3f, want ≈0.10", res.LargeFraction)
	}
	// Fig. 1: LPTs carry "nearly one hundred packets or more"; SPTs a
	// few to dozens.
	if res.MeanLongPackets < 90 {
		t.Errorf("mean LPT packets = %.1f", res.MeanLongPackets)
	}
	if res.MeanShortPackets > 60 {
		t.Errorf("mean SPT packets = %.1f, want dozens at most", res.MeanShortPackets)
	}
	// Fig. 2(b): gaps from hundreds of µs to several ms.
	if res.GapP10us < 100 || res.GapP90us > 10_000 {
		t.Errorf("gap percentiles P10=%.0fµs P90=%.0fµs out of the paper's range",
			res.GapP10us, res.GapP90us)
	}
}

func TestPaperAblationShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations")
	}
	inherit, err := RunInheritanceAblation(Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Blind inheritance is catastrophically slower than either
	// restart-at-2 or probe-based inheritance.
	if inherit.Row(ProtoTCP).LPTMean < 5*inherit.Row(ProtoTRIM).LPTMean {
		t.Error("blind inheritance should be far slower than TRIM on the LPT")
	}
	// TRIM's probed inheritance is at least as fast as GIP's
	// unconditional restart (the paper's critique of GIP).
	if inherit.Row(ProtoTRIM).LPTMean > inherit.Row(ProtoGIP).LPTMean*3/2 {
		t.Errorf("TRIM LPT %v much slower than GIP %v",
			inherit.Row(ProtoTRIM).LPTMean, inherit.Row(ProtoGIP).LPTMean)
	}

	mech, err := RunMechanismAblation(Options{})
	if err != nil {
		t.Fatal(err)
	}
	// On the concurrency case, removing queue control hurts badly;
	// full TRIM stays in the few-ms regime.
	if mech.Row(ProtoTRIM).ACT > 10*time.Millisecond {
		t.Errorf("full TRIM ACT = %v", mech.Row(ProtoTRIM).ACT)
	}
	if mech.Row(ProtoTRIMNoQueue).ACT < 2*mech.Row(ProtoTRIM).ACT {
		t.Error("removing queue control should hurt the concurrency case")
	}
}
