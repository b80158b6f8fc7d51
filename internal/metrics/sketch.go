package metrics

// Bounded streaming quantiles. Distribution retains raw samples — exact,
// but O(n) memory, which a million-connection FCT collection cannot
// afford. Above a sample cap it folds everything into a deterministic
// log-linear histogram: each octave [2^(e-1), 2^e) is cut into 64 equal
// subbuckets 2^(e-1)/64 wide, 1.56 % of the values at the octave's bottom
// and 0.78 % at its top. Reporting a bucket's midpoint bounds the relative
// error of any quantile of positive samples, against the exact order
// statistic of the same rank, by 1/128 ≈ 0.78 % (0.39 % at the top of an
// octave); seeded log-normal, bimodal and Pareto samples land at
// 0.45–0.68 % (sketch_property_test.go). subBits controls the trade;
// memory is a fixed ~60 KB per engaged distribution regardless of sample
// count. The mapping is pure float arithmetic — no randomness, no
// data-dependent layout — so sketched output is bit-reproducible across
// runs, unlike reservoir sampling, and unlike P² it answers arbitrary
// quantiles after the fact.

import "math"

const (
	// subBits: log2 of subbuckets per octave.
	subBits  = 6
	subCount = 1 << subBits
	subMask  = subCount - 1
	// sketchMinExp / sketchMaxExp clamp the tracked magnitude range to
	// [2^-60, 2^60] ≈ [8.7e-19, 1.2e18]; samples outside collapse into
	// the edge octaves (min/max stay exact regardless).
	sketchMinExp  = -60
	sketchMaxExp  = 60
	sketchBuckets = (sketchMaxExp - sketchMinExp + 1) * subCount
)

// quantileSketch is the engaged backend: counts per log-linear bucket for
// positive samples, plus an exact count of non-positive ones (they all
// rank below every positive bucket; queries landing there report the
// exact minimum).
type quantileSketch struct {
	counts []int64
	nonpos int64
	n      int64
}

func newQuantileSketch() *quantileSketch {
	return &quantileSketch{counts: make([]int64, sketchBuckets)}
}

func (s *quantileSketch) add(x float64) {
	s.n++
	if x <= 0 || math.IsNaN(x) {
		s.nonpos++
		return
	}
	s.counts[sketchBucketOf(x)]++
}

// sketchBucketOf maps a positive sample to its bucket index.
func sketchBucketOf(x float64) int {
	frac, exp := math.Frexp(x) // x = frac × 2^exp, frac ∈ [0.5, 1)
	if exp < sketchMinExp {
		return 0
	}
	if exp > sketchMaxExp {
		return sketchBuckets - 1
	}
	sub := int((frac - 0.5) * (2 * subCount))
	if sub > subMask {
		sub = subMask
	}
	return (exp-sketchMinExp)<<subBits | sub
}

// sketchRep returns the representative value (bucket midpoint) of bucket b.
func sketchRep(b int) float64 {
	exp := b>>subBits + sketchMinExp
	sub := b & subMask
	lo := math.Ldexp(0.5+float64(sub)/(2*subCount), exp)
	hi := math.Ldexp(0.5+float64(sub+1)/(2*subCount), exp)
	return (lo + hi) / 2
}

// rank returns the value at 0-based rank r (0 ≤ r < n): non-positive
// ranks report lo (the exact minimum); results clamp into [lo, hi].
func (s *quantileSketch) rank(r int64, lo, hi float64) float64 {
	if r < s.nonpos {
		return lo
	}
	c := s.nonpos
	for b, cnt := range s.counts {
		c += cnt
		if c > r {
			v := sketchRep(b)
			if v < lo {
				v = lo
			}
			if v > hi {
				v = hi
			}
			return v
		}
	}
	return hi
}

// fractionBelow returns the approximate fraction of samples ≤ x: whole
// buckets strictly below x's bucket count fully, x's own bucket counts
// when x is at or above its midpoint.
func (s *quantileSketch) fractionBelow(x float64) float64 {
	if s.n == 0 {
		return 0
	}
	c := int64(0)
	if x >= 0 {
		c = s.nonpos
	}
	if x > 0 {
		bx := sketchBucketOf(x)
		for b := 0; b < bx; b++ {
			c += s.counts[b]
		}
		if x >= sketchRep(bx) {
			c += s.counts[bx]
		}
	}
	return float64(c) / float64(s.n)
}
