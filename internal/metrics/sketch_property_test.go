package metrics

// The sketch's error bound as a property: over seeded samples of the
// shapes completion times take — log-normal, bimodal and heavy-tailed —
// and at counts just below, at and far above DefaultSampleCap, every
// percentile a runner prints stays within sketchRelErr of the exact order
// statistic the sketch answers for (the one at the floor of the rank). An
// exact distribution interpolates between two order statistics, which in
// a sparse tail can differ by more than the bucket width: Pareto P99.9 at
// n = 65,536 sits 1.9 % below the interpolated value and within the bound
// of the order statistic. And a distribution fed while the run goes,
// storage reserved up front and queried midway, ends in the same state as
// one fed after it.

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"tcptrim/internal/sim"
)

// sketchRelErr bounds the relative error of a sketched quantile of
// positive samples, 1/128 ≈ 0.78 %; see sketch.go.
const sketchRelErr = 1.0 / 128

// printedPercentiles are the percentiles the runners' tables show.
var printedPercentiles = []float64{50, 90, 99, 99.9}

var sampleShapes = map[string]func(*rand.Rand) float64{
	// Completion times around 1 ms with a long right tail.
	"lognormal": func(r *rand.Rand) float64 { return 1e-3 * math.Exp(r.NormFloat64()) },
	// Most responses fast, a fifth stuck behind a 200 ms timeout.
	"bimodal": func(r *rand.Rand) float64 {
		if r.Intn(5) == 0 {
			return 0.2 * math.Exp(0.1*r.NormFloat64())
		}
		return 5e-4 * math.Exp(0.3*r.NormFloat64())
	},
	// Pareto with shape 1.2 from 100 µs: the mean barely exists.
	"pareto": func(r *rand.Rand) float64 { return 1e-4 / math.Pow(1-r.Float64(), 1/1.2) },
}

func TestSketchErrorBoundProperty(t *testing.T) {
	counts := []int{DefaultSampleCap - 1, DefaultSampleCap, 16 * DefaultSampleCap}
	if testing.Short() {
		counts = counts[:2]
	}
	for name, draw := range sampleShapes {
		for seed := int64(1); seed <= 2; seed++ {
			for _, n := range counts {
				rng := sim.NewRand(seed)
				var capped, exact Distribution
				exact.SetSampleCap(-1)
				for i := 0; i < n; i++ {
					x := draw(rng)
					capped.Add(x)
					exact.Add(x)
				}
				if capped.Sketched() != (n >= DefaultSampleCap) {
					t.Fatalf("%s n=%d: sketched=%v", name, n, capped.Sketched())
				}
				exact.ensureSorted()
				worst := 0.0
				for _, p := range printedPercentiles {
					want, got := exact.samples[int(p/100*float64(n-1))], capped.Percentile(p)
					if !capped.Sketched() {
						want = exact.Percentile(p)
					}
					rel := math.Abs(got-want) / want
					worst = math.Max(worst, rel)
					if rel > sketchRelErr {
						t.Errorf("%s seed %d n=%d p%v: sketch %.6g, exact %.6g, relative error %.3f%% over %.3f%%",
							name, seed, n, p, got, want, 100*rel, 100*sketchRelErr)
					}
				}
				if capped.Count() != n || capped.Min() != exact.Min() || capped.Max() != exact.Max() ||
					math.Abs(capped.Mean()-exact.Mean()) > 1e-12*exact.Mean() {
					t.Errorf("%s n=%d: count/min/max %d %g %g, exact %d %g %g", name, n,
						capped.Count(), capped.Min(), capped.Max(), n, exact.Min(), exact.Max())
				}
				t.Logf("%s seed %d n=%d: worst relative error %.3f%%", name, seed, n, 100*worst)
			}
		}
	}
}

// TestStreamedDistributionMatchesPostRun: reserving storage for every
// sample up front and adding them as they come, with queries in between,
// leaves the distribution in the same state as adding them all at the
// end. Mean's float sum, the exact percentiles and the sketch fold
// depend only on the values and their order.
func TestStreamedDistributionMatchesPostRun(t *testing.T) {
	for _, n := range []int{1000, DefaultSampleCap - 1, DefaultSampleCap, 3 * DefaultSampleCap} {
		rng := sim.NewRand(int64(n))
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = sampleShapes["bimodal"](rng)
		}
		var streamed, after Distribution
		streamed.Reserve(n)
		if want := min(n, DefaultSampleCap); cap(streamed.samples) != want {
			t.Errorf("n=%d: reserved %d samples, want %d", n, cap(streamed.samples), want)
		}
		for i, x := range vals {
			streamed.Add(x)
			if i%(n/7) == 0 {
				streamed.Percentile(99) // a live progress query midway
			}
		}
		for _, x := range vals {
			after.Add(x)
		}
		if !reflect.DeepEqual(streamed.Snapshot(), after.Snapshot()) {
			t.Errorf("n=%d: streamed snapshot differs from the post-run one", n)
		}
		for _, p := range printedPercentiles {
			if streamed.Percentile(p) != after.Percentile(p) {
				t.Errorf("n=%d p%v: streamed %v, post-run %v", n, p, streamed.Percentile(p), after.Percentile(p))
			}
		}
		if streamed.Mean() != after.Mean() {
			t.Errorf("n=%d: streamed mean %v, post-run %v", n, streamed.Mean(), after.Mean())
		}
	}
}
