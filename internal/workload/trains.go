package workload

import (
	"math/rand"
	"time"

	"tcptrim/internal/sim"
)

// Train is one scheduled packet train (HTTP response) on a connection.
type Train struct {
	At    sim.Time
	Bytes int
}

// Schedule generates the release times and sizes of a connection's trains
// between start and end: each train's size comes from sizes, and the gap
// to the next train from gaps. The trains are in order of At: a gap
// drawn at or below zero is clamped to a nanosecond, so At strictly
// increases, and a release queue takes the schedule as a single run.
func Schedule(rng *rand.Rand, start, end sim.Time, sizes SizeDist, gaps GapDist) []Train {
	var out []Train
	at := start
	for at < end {
		out = append(out, Train{At: at, Bytes: sizes.Sample(rng)})
		gap := gaps.Sample(rng)
		if gap <= 0 {
			gap = time.Nanosecond
		}
		at = at.Add(gap)
	}
	return out
}

// ScheduleCount generates exactly n trains starting at start, separated by
// gaps. Like Schedule's, its trains are in order of At, strictly
// increasing by the same gap clamp.
func ScheduleCount(rng *rand.Rand, start sim.Time, n int, sizes SizeDist, gaps GapDist) []Train {
	return AppendScheduleCount(make([]Train, 0, n), rng, start, n, sizes, gaps)
}

// AppendScheduleCount appends ScheduleCount's n trains to dst, as append
// does, and returns the extended slice.
func AppendScheduleCount(dst []Train, rng *rand.Rand, start sim.Time, n int, sizes SizeDist, gaps GapDist) []Train {
	at := start
	for i := 0; i < n; i++ {
		dst = append(dst, Train{At: at, Bytes: sizes.Sample(rng)})
		gap := gaps.Sample(rng)
		if gap <= 0 {
			gap = time.Nanosecond
		}
		at = at.Add(gap)
	}
	return dst
}

// PacketRecord is one observed packet in a trace (the analyzer's input).
type PacketRecord struct {
	At    sim.Time
	Bytes int
}

// TrainInfo is one packet train recovered from a trace.
type TrainInfo struct {
	Start   sim.Time
	End     sim.Time
	Packets int
	Bytes   int
}

// Interval returns the train's duration.
func (t TrainInfo) Interval() time.Duration { return t.End.Sub(t.Start) }

// SplitTrains recovers packet trains from a time-ordered packet trace
// using the paper's definition (Section II.A): packets whose spacing
// exceeds the inter-train gap threshold belong to different trains.
func SplitTrains(trace []PacketRecord, gapThreshold time.Duration) []TrainInfo {
	if len(trace) == 0 {
		return nil
	}
	var out []TrainInfo
	cur := TrainInfo{Start: trace[0].At, End: trace[0].At, Packets: 1, Bytes: trace[0].Bytes}
	for _, p := range trace[1:] {
		if p.At.Sub(cur.End) > gapThreshold {
			out = append(out, cur)
			cur = TrainInfo{Start: p.At, End: p.At, Packets: 1, Bytes: p.Bytes}
			continue
		}
		cur.End = p.At
		cur.Packets++
		cur.Bytes += p.Bytes
	}
	return append(out, cur)
}

// Gaps returns the inter-train gaps of a recovered train sequence
// (Fig. 2(b)'s metric).
func Gaps(trains []TrainInfo) []time.Duration {
	if len(trains) < 2 {
		return nil
	}
	out := make([]time.Duration, 0, len(trains)-1)
	for i := 1; i < len(trains); i++ {
		out = append(out, trains[i].Start.Sub(trains[i-1].End))
	}
	return out
}

// LongTrainThresholdPackets separates the paper's short packet trains
// (SPT, a few to dozens of packets) from long ones (LPT, "nearly one
// hundred packets or more").
const LongTrainThresholdPackets = 90

// IsLong reports whether the train is an LPT under the paper's taxonomy.
func (t TrainInfo) IsLong() bool { return t.Packets >= LongTrainThresholdPackets }
