package experiment

import (
	"fmt"
	"io"
	"time"

	"tcptrim/internal/metrics"
	"tcptrim/internal/netsim"
	"tcptrim/internal/sim"
	"tcptrim/internal/topology"
	"tcptrim/internal/workload"
)

// Fig. 1 / Fig. 2 reproduction: the paper derived the packet-train
// taxonomy from a 2 TB campus trace; we generate traffic from the
// published distribution shapes, capture the packet trace at the
// front-end, and run the same packet-train analysis (trains split at gaps
// exceeding the inter-train threshold).
const (
	trWindow       = 2 * time.Second
	trGapThreshold = 500 * time.Microsecond
	trCDFSamples   = 20000
)

// TrainAnalysisResult holds the recovered Fig. 1 / Fig. 2 statistics.
type TrainAnalysisResult struct {
	// Recovered trains from the simulated wire trace (Fig. 1).
	Trains    int
	LongCount int
	// MeanShortPackets / MeanLongPackets characterize the two classes.
	MeanShortPackets float64
	MeanLongPackets  float64
	// Generator-side CDF band fractions (Fig. 2(a)).
	TinyFraction  float64 // ≤ 4 KB
	MidFraction   float64 // 4–128 KB
	LargeFraction float64 // > 128 KB
	// Gap percentiles (Fig. 2(b)), in microseconds.
	GapP10us, GapP50us, GapP90us float64
}

// RunTrainAnalysis generates ON/OFF traffic on one connection, captures
// the arrival trace, and recovers the packet trains.
func RunTrainAnalysis(opts Options) (*TrainAnalysisResult, error) {
	sc, err := scenario{
		servers: 1, link: topology.DefaultStarLink(1000),
		proto: ProtoTCP, seed: opts.seed(),
	}.build(opts)
	if err != nil {
		return nil, err
	}
	rng, sched := sc.rng, sc.sched
	var trace []workload.PacketRecord
	sc.star.FrontEnd.SetTap(func(p *netsim.Packet) {
		if !p.IsAck {
			trace = append(trace, workload.PacketRecord{At: sched.Now(), Bytes: p.Size})
		}
	})
	trains := workload.Schedule(rng, sim.At(10*time.Millisecond), sim.At(trWindow),
		workload.PTSizes{}, workload.PTGaps{})
	if err := sc.fleet.ScheduleTrains(0, trains); err != nil {
		return nil, err
	}
	if err := sc.run(trWindow+time.Second, 0, nil); err != nil {
		return nil, err
	}

	recovered := workload.SplitTrains(trace, trGapThreshold)
	res := &TrainAnalysisResult{Trains: len(recovered)}
	var short, long, shortN, longN float64
	for _, tr := range recovered {
		if tr.IsLong() {
			res.LongCount++
			long += float64(tr.Packets)
			longN++
		} else {
			short += float64(tr.Packets)
			shortN++
		}
	}
	if shortN > 0 {
		res.MeanShortPackets = short / shortN
	}
	if longN > 0 {
		res.MeanLongPackets = long / longN
	}

	// Generator-side Fig. 2 statistics over a large sample.
	var tiny, large int
	var gaps []float64
	sizes := workload.PTSizes{}
	gapDist := workload.PTGaps{}
	for i := 0; i < trCDFSamples; i++ {
		s := sizes.Sample(rng)
		if s <= workload.PTSmallBytes {
			tiny++
		}
		if s > workload.PTLargeBytes {
			large++
		}
		gaps = append(gaps, float64(gapDist.Sample(rng))/float64(time.Microsecond))
	}
	res.TinyFraction = float64(tiny) / trCDFSamples
	res.LargeFraction = float64(large) / trCDFSamples
	res.MidFraction = 1 - res.TinyFraction - res.LargeFraction
	res.GapP10us = percentileOf(gaps, 10)
	res.GapP50us = percentileOf(gaps, 50)
	res.GapP90us = percentileOf(gaps, 90)
	return res, nil
}

func percentileOf(vals []float64, p float64) float64 {
	var d metrics.Distribution
	for _, v := range vals {
		d.Add(v)
	}
	return d.Percentile(p)
}

// WriteTables renders the Fig. 1 / Fig. 2 statistics.
func (r *TrainAnalysisResult) WriteTables(w io.Writer) error {
	t := &Table{
		Title:  "Fig. 1: packet trains recovered from the simulated trace",
		Header: []string{"metric", "value"},
		Rows: [][]string{
			{"trains", fmt.Sprintf("%d", r.Trains)},
			{"long trains (LPT)", fmt.Sprintf("%d", r.LongCount)},
			{"mean SPT packets", fmt.Sprintf("%.1f", r.MeanShortPackets)},
			{"mean LPT packets", fmt.Sprintf("%.1f", r.MeanLongPackets)},
		},
	}
	if err := t.Write(w); err != nil {
		return err
	}
	t2 := &Table{
		Title:  "Fig. 2: PT size bands and inter-train gap percentiles",
		Header: []string{"metric", "value"},
		Rows: [][]string{
			{"size ≤ 4KB", fmt.Sprintf("%.1f%%", r.TinyFraction*100)},
			{"size 4–128KB", fmt.Sprintf("%.1f%%", r.MidFraction*100)},
			{"size > 128KB", fmt.Sprintf("%.1f%%", r.LargeFraction*100)},
			{"gap P10", fmt.Sprintf("%.0fµs", r.GapP10us)},
			{"gap P50", fmt.Sprintf("%.0fµs", r.GapP50us)},
			{"gap P90", fmt.Sprintf("%.0fµs", r.GapP90us)},
		},
	}
	return t2.Write(w)
}

var _ = register("fig1",
	"Packet trains recovered from one persistent connection's trace: sizes, gaps, ON/OFF structure (Fig. 1)",
	nil,
	tables(RunTrainAnalysis))

var _ = register("fig2",
	"Packet-train size bands and inter-train gap percentiles over the response mix (Fig. 2)",
	nil,
	tables(RunTrainAnalysis))
