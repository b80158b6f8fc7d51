package httpapp

import (
	"runtime"
	"testing"
	"time"

	"tcptrim/internal/metrics"
	"tcptrim/internal/sim"
	"tcptrim/internal/tcp"
	"tcptrim/internal/workload"
)

// TestStreamingCollectorMatchesRecords runs one fleet's schedule twice,
// once into a recording collector and once into a streaming one: the count,
// the last completion, and the mean and P99 of the completion times must be
// the same to the bit, and the streaming run must allocate no record per
// response: only the 8-byte sample its distribution keeps, where a record
// is 40 bytes. The saving is checked against 24 B a response, which leaves
// room for the runtime's own allocations in either run.
func TestStreamingCollectorMatchesRecords(t *testing.T) {
	const servers, perServer = 4, 300
	run := func(fct *metrics.Distribution) (*Collector, uint64) {
		_, fleet, sched := newStarFleet(t, servers, tcp.Config{})
		if fct != nil {
			fleet.Collector.StreamTo(fct)
		}
		for i, srv := range fleet.Servers {
			trains := workload.ScheduleCount(sim.NewRand(int64(i+1)), sim.At(time.Millisecond), perServer,
				workload.UniformSize{Min: 1 << 10, Max: 32 << 10},
				workload.ExponentialGap{Mean: 200 * time.Microsecond})
			if err := srv.ScheduleTrains(trains); err != nil {
				t.Fatal(err)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sched.RunUntil(sim.At(2 * time.Second))
		runtime.ReadMemStats(&after)
		if fleet.Collector.Pending() != 0 {
			t.Fatalf("%d responses pending", fleet.Collector.Pending())
		}
		return fleet.Collector, after.TotalAlloc - before.TotalAlloc
	}
	rec, recBytes := run(nil)
	var fct metrics.Distribution
	stream, streamBytes := run(&fct)

	want := rec.CompletionTimes(nil)
	n := servers * perServer
	if rec.Count() != n || stream.Count() != n || fct.Count() != n {
		t.Fatalf("counts: recording %d, streaming %d, distribution %d; want %d",
			rec.Count(), stream.Count(), fct.Count(), n)
	}
	if stream.Last() != rec.Last() || rec.Last() != rec.Responses()[n-1].Completed {
		t.Errorf("last completion: streaming %v, recording %v, last record %v",
			stream.Last(), rec.Last(), rec.Responses()[n-1].Completed)
	}
	if fct.Mean() != want.Mean() || fct.Percentile(99) != want.Percentile(99) {
		t.Errorf("streaming mean %v P99 %v, recording mean %v P99 %v",
			fct.Mean(), fct.Percentile(99), want.Mean(), want.Percentile(99))
	}
	if stream.responses != nil {
		t.Errorf("streaming collector kept %d records", len(stream.responses))
	}
	saved := int64(recBytes) - int64(streamBytes)
	t.Logf("allocated %d B recording, %d B streaming: %.1f B per response less", recBytes, streamBytes, float64(saved)/float64(n))
	if saved < int64(n)*24 {
		t.Errorf("streaming allocated %d B less than recording for %d responses, want at least 24 B each", saved, n)
	}
}
