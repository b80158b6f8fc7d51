package workload

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"tcptrim/internal/sim"
)

func TestPTSizesMatchPaperBands(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := PTSizes{}
	const n = 20000
	var tiny, large int
	for i := 0; i < n; i++ {
		s := d.Sample(rng)
		if s < PTMinBytes || s > PTMaxBytes {
			t.Fatalf("sample %d outside [0.5KB, 256KB]", s)
		}
		if s <= PTSmallBytes {
			tiny++
		}
		if s > PTLargeBytes {
			large++
		}
	}
	tinyFrac := float64(tiny) / n
	largeFrac := float64(large) / n
	// Paper: "the proportion of tiny PTs (≤4 KB) is lower than 20%,
	// while 10% is larger than 128 KB"; about 70% is between.
	if tinyFrac < 0.17 || tinyFrac > 0.23 {
		t.Errorf("tiny fraction = %.3f, want ≈0.20", tinyFrac)
	}
	if largeFrac < 0.08 || largeFrac > 0.12 {
		t.Errorf("large fraction = %.3f, want ≈0.10", largeFrac)
	}
}

func TestPTGapsRange(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := PTGaps{}
	var subMs int
	const n = 10000
	for i := 0; i < n; i++ {
		v := g.Sample(rng)
		if v < GapMin || v > GapMax {
			t.Fatalf("gap %v outside range", v)
		}
		if v < time.Millisecond {
			subMs++
		}
	}
	// Log-uniform on [100µs, 10ms]: half the mass below 1 ms.
	frac := float64(subMs) / n
	if frac < 0.45 || frac > 0.55 {
		t.Errorf("sub-millisecond fraction = %.3f, want ≈0.5", frac)
	}
}

func TestExponentialGapMean(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := ExponentialGap{Mean: time.Millisecond}
	var sum time.Duration
	const n = 20000
	for i := 0; i < n; i++ {
		sum += g.Sample(rng)
	}
	mean := sum / n
	if mean < 950*time.Microsecond || mean > 1050*time.Microsecond {
		t.Errorf("mean = %v, want ≈1ms", mean)
	}
}

func TestUniformDists(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	us := UniformSize{Min: 2048, Max: 10240}
	for i := 0; i < 1000; i++ {
		if s := us.Sample(rng); s < 2048 || s > 10240 {
			t.Fatalf("uniform size %d out of range", s)
		}
	}
	ug := UniformGap{Min: time.Millisecond, Max: 2 * time.Millisecond}
	for i := 0; i < 1000; i++ {
		if g := ug.Sample(rng); g < time.Millisecond || g >= 2*time.Millisecond {
			t.Fatalf("uniform gap %v out of range", g)
		}
	}
	if (FixedSize{Bytes: 77}).Sample(rng) != 77 {
		t.Error("FixedSize")
	}
	if (FixedGap{D: time.Second}).Sample(rng) != time.Second {
		t.Error("FixedGap")
	}
}

func TestJitteredSize(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	j := JitteredSize{Mean: 100_000, Jitter: 0.1}
	var sum int64
	for i := 0; i < 10000; i++ {
		v := j.Sample(rng)
		if v < 90_000 || v > 110_000 {
			t.Fatalf("jittered size %d outside ±10%%", v)
		}
		sum += int64(v)
	}
	mean := sum / 10000
	if mean < 99_000 || mean > 101_000 {
		t.Errorf("mean = %d, want ≈100000", mean)
	}
}

func TestScheduleRespectsWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	trains := Schedule(rng, sim.At(100*time.Millisecond), sim.At(600*time.Millisecond),
		PTSizes{}, PTGaps{})
	if len(trains) == 0 {
		t.Fatal("no trains generated")
	}
	for i, tr := range trains {
		if tr.At < sim.At(100*time.Millisecond) || tr.At >= sim.At(600*time.Millisecond) {
			t.Fatalf("train %d at %v outside window", i, tr.At)
		}
		if i > 0 && tr.At <= trains[i-1].At {
			t.Fatalf("train times not strictly increasing at %d", i)
		}
	}
}

func TestScheduleCount(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	trains := ScheduleCount(rng, sim.At(time.Millisecond), 200,
		UniformSize{Min: 2048, Max: 10240}, ExponentialGap{Mean: time.Millisecond})
	if len(trains) != 200 {
		t.Fatalf("trains = %d", len(trains))
	}
}

// TestSchedulesAreOrdered: whatever the size and gap distributions, zero
// and negative gaps included, Schedule and ScheduleCount emit trains in
// strictly increasing At, which lets a release queue keep a schedule as
// one run; AppendScheduleCount appends exactly ScheduleCount's trains.
func TestSchedulesAreOrdered(t *testing.T) {
	sizes := []SizeDist{PTSizes{}, UniformSize{Min: 2048, Max: 10240}, FixedSize{Bytes: 1500}, JitteredSize{Mean: 64 << 10, Jitter: 0.1}}
	gaps := []GapDist{PTGaps{}, ExponentialGap{Mean: time.Millisecond}, UniformGap{Min: -time.Microsecond, Max: time.Microsecond},
		FixedGap{D: 0}, FixedGap{D: -time.Millisecond}, ExponentialGap{Mean: 0}}
	ordered := func(trains []Train) bool {
		for i := 1; i < len(trains); i++ {
			if trains[i].At <= trains[i-1].At {
				return false
			}
		}
		return true
	}
	prop := func(seed int64, start uint32, n uint8, si, gi uint8, pre, spare uint8) bool {
		sz, gp := sizes[int(si)%len(sizes)], gaps[int(gi)%len(gaps)]
		at := sim.Time(start)
		counted := ScheduleCount(rand.New(rand.NewSource(seed)), at, int(n), sz, gp)
		if len(counted) != int(n) || !ordered(counted) {
			return false
		}
		// The append form draws the same trains after a prefix it leaves as
		// it was, whether or not the destination has room for them.
		dst := make([]Train, pre, int(pre)+int(spare))
		for i := range dst {
			dst[i] = Train{At: sim.Time(-i), Bytes: i}
		}
		prefix := slices.Clone(dst)
		appended := AppendScheduleCount(dst, rand.New(rand.NewSource(seed)), at, int(n), sz, gp)
		if !slices.Equal(appended[:pre], prefix) || !slices.Equal(dst, prefix) || !slices.Equal(appended[pre:], counted) {
			return false
		}
		if n == 0 {
			return true
		}
		// The window that ends just after the last counted train draws the
		// same trains.
		windowed := Schedule(rand.New(rand.NewSource(seed)), at, counted[n-1].At+1, sz, gp)
		return slices.Equal(windowed, counted)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestScheduleDeterministicPerSeed(t *testing.T) {
	gen := func() []Train {
		rng := rand.New(rand.NewSource(42))
		return ScheduleCount(rng, 0, 50, PTSizes{}, PTGaps{})
	}
	a, b := gen(), gen()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules diverge at %d", i)
		}
	}
}

func TestSplitTrains(t *testing.T) {
	mk := func(atUs int64) sim.Time { return sim.At(time.Duration(atUs) * time.Microsecond) }
	trace := []PacketRecord{
		{At: mk(0), Bytes: 1500},
		{At: mk(12), Bytes: 1500},
		{At: mk(24), Bytes: 1500},
		// 5 ms gap → new train.
		{At: mk(5024), Bytes: 1500},
		{At: mk(5036), Bytes: 1000},
	}
	trains := SplitTrains(trace, 300*time.Microsecond)
	if len(trains) != 2 {
		t.Fatalf("trains = %d, want 2", len(trains))
	}
	if trains[0].Packets != 3 || trains[0].Bytes != 4500 {
		t.Errorf("train 0 = %+v", trains[0])
	}
	if trains[1].Packets != 2 || trains[1].Bytes != 2500 {
		t.Errorf("train 1 = %+v", trains[1])
	}
	gaps := Gaps(trains)
	if len(gaps) != 1 || gaps[0] != 5*time.Millisecond {
		t.Errorf("gaps = %v", gaps)
	}
}

func TestSplitTrainsEmptyAndSingle(t *testing.T) {
	if got := SplitTrains(nil, time.Millisecond); got != nil {
		t.Error("empty trace should yield nil")
	}
	one := SplitTrains([]PacketRecord{{At: 0, Bytes: 99}}, time.Millisecond)
	if len(one) != 1 || one[0].Bytes != 99 {
		t.Errorf("single-packet trace: %+v", one)
	}
	if Gaps(one) != nil {
		t.Error("single train has no gaps")
	}
}

// TestSplitTrainsConservation: packets and bytes are conserved across the
// split for arbitrary traces.
func TestSplitTrainsConservation(t *testing.T) {
	prop := func(deltas []uint16) bool {
		var trace []PacketRecord
		at := sim.Time(0)
		for _, d := range deltas {
			at = at.Add(time.Duration(d) * time.Microsecond)
			trace = append(trace, PacketRecord{At: at, Bytes: 1500})
		}
		trains := SplitTrains(trace, 300*time.Microsecond)
		var pkts, bytes int
		for _, tr := range trains {
			pkts += tr.Packets
			bytes += tr.Bytes
		}
		if len(trace) == 0 {
			return trains == nil
		}
		return pkts == len(trace) && bytes == 1500*len(trace)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestIsLong(t *testing.T) {
	if (TrainInfo{Packets: 10}).IsLong() {
		t.Error("10-packet train classified long")
	}
	if !(TrainInfo{Packets: 120}).IsLong() {
		t.Error("120-packet train classified short")
	}
}
