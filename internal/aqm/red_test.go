package aqm

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"tcptrim/internal/sim"
)

// Naive-transcription oracle for RED, in the internal/cc oracle-test
// style: an independent re-derivation of the published update rule
// (EWMA with idle decay, the count-uniformized drop curve, ARED's AIMD
// step) run in lockstep over randomized arrival streams and compared
// verdict by verdict. The random draw is consumed at exactly one point
// of the decision sequence (the in-band test), which both sides mirror.
type naiveRED struct {
	cfg  REDConfig
	lim  Limits
	rng  *rand.Rand
	avg  float64
	cnt  int
	seen bool
	last sim.Time
	next sim.Time
	maxP float64
}

func newNaiveRED(cfg REDConfig, lim Limits) *naiveRED {
	cfg = cfg.withDefaults(lim)
	return &naiveRED{cfg: cfg, lim: lim, rng: rand.New(rand.NewSource(cfg.Seed)), cnt: -1, maxP: cfg.MaxP}
}

func (n *naiveRED) onEnqueue(p Pkt, q State, now sim.Time) EnqueueVerdict {
	// 1. EWMA update.
	if q.Len == 0 && n.seen {
		m := float64(now-n.last) / float64(n.cfg.MeanPktTime)
		if m > 0 {
			n.avg *= math.Pow(1-n.cfg.Wq, m)
		}
	} else {
		n.avg = (1-n.cfg.Wq)*n.avg + n.cfg.Wq*float64(q.Len)
	}
	n.seen, n.last = true, now
	// 2. ARED AIMD step.
	if n.cfg.Adaptive && now >= n.next {
		band := float64(n.cfg.MaxTh - n.cfg.MinTh)
		low, high := float64(n.cfg.MinTh)+0.4*band, float64(n.cfg.MinTh)+0.6*band
		if n.avg > high && n.maxP < 0.5 {
			n.maxP = math.Min(0.5, n.maxP+math.Min(0.01, n.maxP/4))
		} else if n.avg < low && n.maxP > 0.01 {
			n.maxP = math.Max(0.01, n.maxP*0.9)
		}
		n.next = now.Add(n.cfg.AdaptInterval)
	}
	// 3. Physical capacity.
	full := (n.lim.CapPackets > 0 && q.Len >= n.lim.CapPackets) ||
		(n.lim.CapBytes > 0 && q.Bytes+p.Size > n.lim.CapBytes)
	if full {
		n.cnt = 0
		return EnqueueVerdict{Drop: true}
	}
	// 4. The three bands.
	if n.avg < float64(n.cfg.MinTh) {
		n.cnt = -1
		return EnqueueVerdict{}
	}
	if n.avg >= float64(n.cfg.MaxTh) {
		n.cnt = 0
		return EnqueueVerdict{Drop: true, Early: true}
	}
	n.cnt++
	pb := n.maxP * (n.avg - float64(n.cfg.MinTh)) / float64(n.cfg.MaxTh-n.cfg.MinTh)
	pa := 1.0
	if cp := float64(n.cnt) * pb; cp < 1 {
		pa = pb / (1 - cp)
	}
	if n.rng.Float64() < pa {
		n.cnt = 0
		if n.cfg.ECN && p.ECT {
			return EnqueueVerdict{Mark: true}
		}
		return EnqueueVerdict{Drop: true, Early: true}
	}
	return EnqueueVerdict{}
}

// driveRED runs live and naive RED in lockstep over a randomized toy
// queue, with the verdicts feeding the queue state both sides see next.
func driveRED(t *testing.T, cfg REDConfig, lim Limits, seed int64, steps int) {
	t.Helper()
	live := newRED(cfg, lim)
	naive := newNaiveRED(cfg, lim)
	drv := rand.New(rand.NewSource(seed))
	var qLen, qBytes int
	now := sim.Time(0)
	for i := 0; i < steps; i++ {
		now = now.Add(time.Duration(drv.Intn(50)+1) * time.Microsecond)
		if drv.Intn(3) == 0 && qLen > 0 { // departure
			qLen--
			qBytes -= 1500
			continue
		}
		p := Pkt{Size: 1500, ECT: drv.Intn(2) == 0, Flow: uint64(drv.Intn(8))}
		st := State{Len: qLen, Bytes: qBytes}
		got := live.OnEnqueue(p, st, now)
		want := naive.onEnqueue(p, st, now)
		if got != want {
			t.Fatalf("seed %d step %d (avg=%.4f): live %+v != naive %+v",
				seed, i, naive.avg, got, want)
		}
		if lv := live.Stats().AvgQueue; math.Abs(lv-naive.avg) > 1e-12 {
			t.Fatalf("seed %d step %d: avg diverged: live %v naive %v", seed, i, lv, naive.avg)
		}
		if lv := live.Stats().MaxP; lv != naive.maxP {
			t.Fatalf("seed %d step %d: maxP diverged: live %v naive %v", seed, i, lv, naive.maxP)
		}
		if !got.Drop {
			qLen++
			qBytes += p.Size
		}
	}
}

func TestREDMatchesNaiveTranscription(t *testing.T) {
	lim := Limits{CapPackets: 40}
	for seed := int64(1); seed <= 20; seed++ {
		driveRED(t, REDConfig{MinTh: 5, MaxTh: 15, Seed: seed}, lim, seed, 2000)
	}
}

func TestREDECNMatchesNaiveTranscription(t *testing.T) {
	lim := Limits{CapPackets: 40}
	for seed := int64(1); seed <= 10; seed++ {
		driveRED(t, REDConfig{MinTh: 5, MaxTh: 15, ECN: true, Seed: seed}, lim, seed, 2000)
	}
}

func TestAREDMatchesNaiveTranscription(t *testing.T) {
	lim := Limits{CapPackets: 40}
	for seed := int64(1); seed <= 10; seed++ {
		driveRED(t, REDConfig{MinTh: 5, MaxTh: 15, Adaptive: true,
			AdaptInterval: 500 * time.Microsecond, Seed: seed}, lim, seed, 3000)
	}
}

// TestREDDropCurve pins the probability bands: a short queue never drops
// early, a saturated average always does.
func TestREDDropCurve(t *testing.T) {
	lim := Limits{CapPackets: 1000}
	r := newRED(REDConfig{MinTh: 5, MaxTh: 15, Wq: 0.5, Seed: 1}, lim)
	// Average stays ~1 << minTh: no early action ever.
	for i := 0; i < 100; i++ {
		if v := r.OnEnqueue(Pkt{Size: 1500}, State{Len: 1, Bytes: 1500}, sim.Time(i)); v.Drop || v.Mark {
			t.Fatalf("below MinTh: unexpected verdict %+v", v)
		}
	}
	// Drive the average far above maxTh: every arrival is a forced early
	// drop.
	for i := 0; i < 50; i++ {
		r.OnEnqueue(Pkt{Size: 1500}, State{Len: 500, Bytes: 500 * 1500}, sim.Time(1000+i))
	}
	v := r.OnEnqueue(Pkt{Size: 1500}, State{Len: 500, Bytes: 500 * 1500}, 2000)
	if !v.Drop || !v.Early {
		t.Fatalf("above MaxTh: want forced early drop, got %+v", v)
	}
}

// TestREDBelowMinThDrawsNothing: a queue whose average stays below MinTh
// makes no early-drop draw, so it allocates nothing per arrival and never
// builds its generator; the first in-band arrival builds it.
func TestREDBelowMinThDrawsNothing(t *testing.T) {
	r := newRED(REDConfig{MinTh: 5, MaxTh: 15, Wq: 0.5, Seed: 1}, Limits{CapPackets: 100})
	now := sim.Time(0)
	allocs := testing.AllocsPerRun(1000, func() {
		now = now.Add(time.Microsecond)
		if v := r.OnEnqueue(Pkt{Size: 1500}, State{Len: 2, Bytes: 2 * 1500}, now); v.Drop || v.Mark {
			t.Fatalf("below MinTh: unexpected verdict %+v", v)
		}
	})
	if allocs != 0 || r.rng != nil {
		t.Fatalf("below MinTh: %.2f allocs per arrival, generator built: %v; want 0 and false", allocs, r.rng != nil)
	}
	for i := 0; i < 20 && r.rng == nil; i++ {
		now = now.Add(time.Microsecond)
		r.OnEnqueue(Pkt{Size: 1500}, State{Len: 10, Bytes: 10 * 1500}, now)
	}
	if r.rng == nil {
		t.Fatal("in-band arrivals never built the generator")
	}
}

// TestREDIdleDecay pins the idle-time estimator: a long silence shrinks
// the average toward zero instead of freezing it.
func TestREDIdleDecay(t *testing.T) {
	r := newRED(REDConfig{MinTh: 5, MaxTh: 15, Wq: 0.2, Seed: 1}, Limits{CapPackets: 100})
	for i := 0; i < 50; i++ {
		r.OnEnqueue(Pkt{Size: 1500}, State{Len: 10, Bytes: 10 * 1500}, sim.Time(i*1000))
	}
	before := r.Stats().AvgQueue
	r.OnEnqueue(Pkt{Size: 1500}, State{Len: 0, Bytes: 0}, sim.At(time.Second))
	after := r.Stats().AvgQueue
	if after >= before/10 {
		t.Fatalf("idle decay too weak: avg %v -> %v", before, after)
	}
}

// TestREDDeterminism: same seed, same verdict stream.
func TestREDDeterminism(t *testing.T) {
	run := func() []EnqueueVerdict {
		r := newRED(REDConfig{MinTh: 2, MaxTh: 8, Seed: 7}, Limits{CapPackets: 20})
		var out []EnqueueVerdict
		for i := 0; i < 500; i++ {
			out = append(out, r.OnEnqueue(Pkt{Size: 1500}, State{Len: i % 15, Bytes: (i % 15) * 1500}, sim.Time(i*10)))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("step %d: %+v != %+v", i, a[i], b[i])
		}
	}
}
