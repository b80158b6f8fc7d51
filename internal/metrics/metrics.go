// Package metrics provides the measurement helpers the experiment harness
// uses: streaming summaries (Welford), sample distributions with
// percentiles and CDFs, time-binned series for throughput, and a periodic
// sampler for queue lengths and window traces.
package metrics

import (
	"encoding/json"
	"math"
	"sort"
	"time"

	"tcptrim/internal/sim"
)

// Summary accumulates streaming statistics without retaining samples.
type Summary struct {
	n        int
	mean, m2 float64
	min, max float64
}

// Add folds one observation into the summary.
func (s *Summary) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
}

// Count returns the number of observations.
func (s *Summary) Count() int { return s.n }

// Mean returns the arithmetic mean (0 when empty).
func (s *Summary) Mean() float64 { return s.mean }

// Min returns the smallest observation (0 when empty).
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observation (0 when empty).
func (s *Summary) Max() float64 { return s.max }

// Std returns the sample standard deviation (0 for n < 2).
func (s *Summary) Std() float64 {
	if s.n < 2 {
		return 0
	}
	return math.Sqrt(s.m2 / float64(s.n-1))
}

// DefaultSampleCap is the sample count beyond which a Distribution stops
// retaining raw samples and folds into the bounded streaming-quantile
// sketch (see sketch.go). Every reproduced figure stays far below it, so
// pinned outputs remain exact and byte-identical; million-connection FCT
// collections cross it and pay at most 1/128 ≈ 0.78 % relative quantile
// error (sketch.go) for O(1) memory.
const DefaultSampleCap = 1 << 16

// Distribution retains samples for percentile and CDF queries. Order
// statistics are maintained incrementally: the sorted prefix survives
// across queries, and samples added since the last query are sorted and
// merged in on demand (O(k log k + n) for k new samples rather than a full
// O(n log n) re-sort). Sum, min, and max are tracked streaming, so Mean,
// Min, and Max never sort at all — the experiment summary stages
// interleave Adds and queries heavily, which made re-sorting hot.
//
// Beyond the sample cap (SetSampleCap; DefaultSampleCap when unset) the
// raw samples fold into a deterministic log-linear histogram and memory
// stops growing: quantile queries then carry a small bounded relative
// error while Count, Mean, Min, and Max stay exact.
type Distribution struct {
	samples []float64
	// sorted is the length of the sorted prefix of samples.
	sorted int
	// scratch is the merge buffer for ensureSorted, reused across queries.
	scratch  []float64
	n        int
	sum      float64
	min, max float64
	// capHint is the configured sample cap: 0 means DefaultSampleCap,
	// negative means never engage the sketch.
	capHint int
	sketch  *quantileSketch
}

// SetSampleCap bounds retained samples: crossing cap switches the
// distribution to the streaming sketch. cap <= 0 disables the bound
// (exact forever). Call before samples accumulate; lowering the cap
// below the current count engages on the next Add.
func (d *Distribution) SetSampleCap(cap int) {
	if cap <= 0 {
		d.capHint = -1
		return
	}
	d.capHint = cap
}

// Sketched reports whether the distribution has folded into the bounded
// sketch (quantiles approximate, memory bounded).
func (d *Distribution) Sketched() bool { return d.sketch != nil }

// Reserve makes room for n more exact samples, so that adding them does
// not grow the storage again. The room stops at the sample cap, where the
// samples fold into the sketch and the storage is freed; a sketched
// distribution needs none.
func (d *Distribution) Reserve(n int) {
	want := len(d.samples) + n
	if limit := d.sampleCap(); limit > 0 && want > limit {
		want = limit
	}
	if d.sketch != nil || want <= cap(d.samples) {
		return
	}
	grown := make([]float64, len(d.samples), want)
	copy(grown, d.samples)
	d.samples = grown
}

// sampleCap is the configured sample cap, DefaultSampleCap when unset; a
// negative value means no cap.
func (d *Distribution) sampleCap() int {
	if d.capHint == 0 {
		return DefaultSampleCap
	}
	return d.capHint
}

// Add appends one sample.
func (d *Distribution) Add(x float64) {
	if d.n == 0 || x < d.min {
		d.min = x
	}
	if d.n == 0 || x > d.max {
		d.max = x
	}
	d.sum += x
	d.n++
	if d.sketch != nil {
		d.sketch.add(x)
		return
	}
	d.samples = append(d.samples, x)
	if cap := d.sampleCap(); cap > 0 && len(d.samples) >= cap {
		d.engageSketch()
	}
}

// engageSketch folds the retained samples into the histogram and frees
// them; from here on memory is O(1) in the sample count.
func (d *Distribution) engageSketch() {
	d.sketch = newQuantileSketch()
	for _, x := range d.samples {
		d.sketch.add(x)
	}
	d.samples = nil
	d.scratch = nil
	d.sorted = 0
}

// AddDuration appends a duration sample in seconds.
func (d *Distribution) AddDuration(v time.Duration) { d.Add(v.Seconds()) }

// Count returns the number of samples.
func (d *Distribution) Count() int { return d.n }

// Mean returns the sample mean (0 when empty).
func (d *Distribution) Mean() float64 {
	if d.n == 0 {
		return 0
	}
	return d.sum / float64(d.n)
}

// Min returns the smallest sample (0 when empty).
func (d *Distribution) Min() float64 { return d.min }

// Max returns the largest sample (0 when empty).
func (d *Distribution) Max() float64 { return d.max }

// Percentile returns the p-th percentile (p in [0,100]) by linear
// interpolation between the two closest order statistics (the
// "exclusive" variant with rank p/100 × (n−1), as used by numpy's
// default and Excel's PERCENTILE.INC): p0 is the minimum, p100 the
// maximum, and p50 of an even-sized sample is the average of the two
// middle values. Returns 0 when empty.
func (d *Distribution) Percentile(p float64) float64 {
	if d.n == 0 {
		return 0
	}
	if d.sketch != nil {
		if p <= 0 {
			return d.min
		}
		if p >= 100 {
			return d.max
		}
		// Bucket resolution is far below interpolation resolution, so the
		// sketch answers with the bucket holding the floor of the rank.
		return d.sketch.rank(int64(p/100*float64(d.n-1)), d.min, d.max)
	}
	d.ensureSorted()
	if p <= 0 {
		return d.samples[0]
	}
	if p >= 100 {
		return d.samples[len(d.samples)-1]
	}
	rank := p / 100 * float64(len(d.samples)-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if lo+1 >= len(d.samples) {
		return d.samples[lo]
	}
	return d.samples[lo]*(1-frac) + d.samples[lo+1]*frac
}

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	Value    float64
	Fraction float64
}

// CDF returns the empirical CDF at up to points evenly spaced ranks.
func (d *Distribution) CDF(points int) []CDFPoint {
	n := d.n
	if n == 0 || points <= 0 {
		return nil
	}
	if d.sketch != nil {
		if points > n {
			points = n
		}
		out := make([]CDFPoint, 0, points)
		for i := 1; i <= points; i++ {
			idx := i*n/points - 1
			out = append(out, CDFPoint{
				Value:    d.sketch.rank(int64(idx), d.min, d.max),
				Fraction: float64(idx+1) / float64(n),
			})
		}
		return out
	}
	d.ensureSorted()
	if points > n {
		points = n
	}
	out := make([]CDFPoint, 0, points)
	for i := 1; i <= points; i++ {
		idx := i*n/points - 1
		out = append(out, CDFPoint{
			Value:    d.samples[idx],
			Fraction: float64(idx+1) / float64(n),
		})
	}
	return out
}

// FractionBelow returns the fraction of samples ≤ x.
func (d *Distribution) FractionBelow(x float64) float64 {
	if d.n == 0 {
		return 0
	}
	if d.sketch != nil {
		switch {
		case x < d.min:
			return 0
		case x >= d.max:
			return 1
		}
		return d.sketch.fractionBelow(x)
	}
	d.ensureSorted()
	idx := sort.SearchFloat64s(d.samples, math.Nextafter(x, math.Inf(1)))
	return float64(idx) / float64(len(d.samples))
}

// ensureSorted restores full sorted order by sorting only the unsorted
// tail and merging it into the sorted prefix.
func (d *Distribution) ensureSorted() {
	n := len(d.samples)
	if d.sorted == n {
		return
	}
	tail := d.samples[d.sorted:]
	sort.Float64s(tail)
	if d.sorted > 0 {
		// Forward merge of (prefix copy, tail) into samples. Writing index
		// k = i+j never overtakes the unread tail element at sorted+j
		// while the prefix copy still has elements (i < sorted), so the
		// in-place merge is safe without copying the tail.
		d.scratch = append(d.scratch[:0], d.samples[:d.sorted]...)
		i, j, k := 0, 0, 0
		for i < len(d.scratch) && j < len(tail) {
			if d.scratch[i] <= tail[j] {
				d.samples[k] = d.scratch[i]
				i++
			} else {
				d.samples[k] = tail[j]
				j++
			}
			k++
		}
		copy(d.samples[k:], d.scratch[i:])
	}
	d.sorted = n
}

// TimePoint is one (time, value) observation.
type TimePoint struct {
	At    sim.Time
	Value float64
}

// Series is an append-only time series of observations.
type Series struct {
	points []TimePoint
	tap    func(TimePoint)
}

// Tap registers fn to observe every subsequent Record as it happens —
// the live-streaming hook the experiment service uses to forward
// sampler output while a run is still simulating. One tap per series;
// set it before the simulation starts. fn runs on the goroutine that
// records, so it must be safe for concurrent use with taps on series of
// other runs and must never touch simulation state.
func (s *Series) Tap(fn func(TimePoint)) { s.tap = fn }

// Record appends an observation.
func (s *Series) Record(at sim.Time, v float64) {
	s.points = append(s.points, TimePoint{At: at, Value: v})
	if s.tap != nil {
		s.tap(TimePoint{At: at, Value: v})
	}
}

// Points returns the recorded observations (shared slice; callers must
// not mutate it).
func (s *Series) Points() []TimePoint { return s.points }

// MarshalJSON encodes the recorded points as a JSON array — the wire and
// cell-cache format for series-bearing results. The round trip is exact:
// sim.Time is an int64 and Value a float64, both of which encoding/json
// reproduces bit for bit (full-precision integers, shortest
// representation floats), so a decoded series renders byte-identically
// to the original.
func (s *Series) MarshalJSON() ([]byte, error) {
	if s.points == nil {
		return []byte("[]"), nil
	}
	return json.Marshal(s.points)
}

// UnmarshalJSON restores a series encoded by MarshalJSON. Any tap is
// cleared: a decoded series is a record, not a live sampler.
func (s *Series) UnmarshalJSON(b []byte) error {
	s.tap = nil
	s.points = nil
	return json.Unmarshal(b, &s.points)
}

// Max returns the largest recorded value (0 when empty).
func (s *Series) Max() float64 {
	var out float64
	for i, p := range s.points {
		if i == 0 || p.Value > out {
			out = p.Value
		}
	}
	return out
}

// Mean returns the mean of the recorded values (0 when empty).
func (s *Series) Mean() float64 {
	if len(s.points) == 0 {
		return 0
	}
	var sum float64
	for _, p := range s.points {
		sum += p.Value
	}
	return sum / float64(len(s.points))
}

// Sample registers a periodic sampler on sched: every interval from start
// until end it records fn() into a Series.
func Sample(sched *sim.Scheduler, start, end sim.Time, interval time.Duration, fn func() float64) *Series {
	out := &Series{}
	if interval <= 0 || end < start {
		return out
	}
	var tick func()
	tick = func() {
		now := sched.Now()
		out.Record(now, fn())
		if next := now.Add(interval); next <= end {
			sched.After(interval, tick)
		}
	}
	// Tolerate a start in the past by beginning at the current instant.
	if _, err := sched.At(start, tick); err != nil {
		sched.After(0, tick)
	}
	return out
}

// BinnedRate converts cumulative byte counts sampled over time into a
// per-bin throughput series in bits per second. fn must return a
// monotonically nondecreasing cumulative count. When the window [start,
// end] is not an exact multiple of bin, the trailing partial bin is
// still recorded (at end, scaled by its actual width), so no bytes
// observed inside the window are ever dropped from the series.
func BinnedRate(sched *sim.Scheduler, start, end sim.Time, bin time.Duration, fn func() int64) *Series {
	out := &Series{}
	if bin <= 0 || end < start {
		return out
	}
	var prev int64
	var prevAt sim.Time
	first := true
	var tick func()
	tick = func() {
		now := sched.Now()
		cur := fn()
		if first {
			prev, prevAt, first = cur, now, false
		} else {
			bits := float64(cur-prev) * 8
			// Full bins have width == bin exactly (the scheduler fires
			// on integer nanoseconds); only the final partial bin is
			// scaled by a shorter width.
			width := now.Sub(prevAt)
			out.Record(now, bits/width.Seconds())
			prev, prevAt = cur, now
		}
		if next := now.Add(bin); next <= end {
			sched.After(bin, tick)
		} else if now < end {
			// Trailing partial bin: bytes arriving after the last full
			// bin boundary must still appear in the series.
			sched.After(end.Sub(now), tick)
		}
	}
	if _, err := sched.At(start, tick); err != nil {
		sched.After(0, tick)
	}
	return out
}
