package aqm

import (
	"math"
	"math/rand"
	"time"

	"tcptrim/internal/sim"
)

// REDConfig parameterizes Random Early Detection (Floyd & Jacobson 1993)
// with the optional adaptive max-probability of ARED (Floyd, Gummadi &
// Shenker 2001). All queue-length quantities are in packets. Zero-valued
// fields take defaults derived from the queue's limits.
type REDConfig struct {
	// Wq is the EWMA weight of the average-queue estimator (default
	// 0.002).
	Wq float64
	// MinTh / MaxTh bound the early-drop band (defaults CapPackets/6 and
	// CapPackets/2; 5 and 15 for an unlimited queue).
	MinTh, MaxTh int
	// MaxP is the drop probability at MaxTh (default 0.1); ARED adapts
	// it within [0.01, 0.5].
	MaxP float64
	// ECN makes in-band early "drops" CE-mark ECT packets instead of
	// discarding them; non-ECT packets and the forced region at or above
	// MaxTh still drop.
	ECN bool
	// Adaptive enables ARED's AIMD adjustment of MaxP toward keeping the
	// average queue centered in the band.
	Adaptive bool
	// AdaptInterval is the ARED adjustment period (default 10 ms — the
	// published 500 ms is tuned for WAN RTTs; data-center queues drain
	// three orders of magnitude faster).
	AdaptInterval time.Duration
	// MeanPktTime is the assumed per-packet transmission time used to
	// decay the average across idle periods (default 12 µs, one 1500 B
	// packet at 1 Gbps).
	MeanPktTime time.Duration
	// Seed drives the uniformization draw (default 1). Each queue builds
	// its own generator, at its first draw, so two queues sharing a config
	// are independent but deterministic.
	Seed int64
}

// withDefaults normalizes out-of-range parameters.
func (c REDConfig) withDefaults(lim Limits) REDConfig {
	if c.Wq <= 0 || c.Wq >= 1 {
		c.Wq = 0.002
	}
	if c.MinTh <= 0 {
		if lim.CapPackets > 0 {
			c.MinTh = lim.CapPackets / 6
		}
		if c.MinTh < 2 {
			c.MinTh = 5
		}
	}
	if c.MaxTh <= c.MinTh {
		if lim.CapPackets > 0 && lim.CapPackets/2 > c.MinTh {
			c.MaxTh = lim.CapPackets / 2
		} else {
			c.MaxTh = 3 * c.MinTh
		}
	}
	if c.MaxP <= 0 || c.MaxP > 1 {
		c.MaxP = 0.1
	}
	if c.AdaptInterval <= 0 {
		c.AdaptInterval = 10 * time.Millisecond
	}
	if c.MeanPktTime <= 0 {
		c.MeanPktTime = 12 * time.Microsecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// red implements the discipline. The decision sequence per arrival is
// fixed (and mirrored by the test oracle):
//
//  1. update the EWMA: toward the instantaneous length when the queue is
//     backlogged, exponentially decayed by the idle time (in units of
//     MeanPktTime) when the packet finds the queue empty;
//  2. run the ARED adjustment if its interval elapsed;
//  3. enforce physical capacity (a tail drop, not an early drop);
//  4. avg < MinTh: admit, count ← −1;
//     avg ≥ MaxTh: forced early drop, count ← 0;
//     otherwise: count++, pb = MaxP·(avg−MinTh)/(MaxTh−MinTh),
//     pa = pb/(1−count·pb) (1 when count·pb ≥ 1); with probability pa
//     mark (ECN mode, ECT packet) or drop, count ← 0.
type red struct {
	cfg   REDConfig
	lim   Limits
	rng   *rand.Rand // seeded from cfg.Seed at the first draw: most queues never draw
	stats Stats

	avg         float64
	count       int
	hasArrival  bool
	lastArrival sim.Time
	nextAdapt   sim.Time
	maxP        float64
}

func newRED(cfg REDConfig, lim Limits) *red {
	cfg = cfg.withDefaults(lim)
	return &red{
		cfg:   cfg,
		lim:   lim,
		count: -1,
		maxP:  cfg.MaxP,
	}
}

func (r *red) Name() string {
	if r.cfg.Adaptive {
		return "ared"
	}
	return "red"
}

func (r *red) OnEnqueue(p Pkt, q State, now sim.Time) EnqueueVerdict {
	r.updateAvg(q, now)
	if r.cfg.Adaptive && now >= r.nextAdapt {
		r.adapt()
		r.nextAdapt = now.Add(r.cfg.AdaptInterval)
	}
	if !r.lim.admits(p, q) {
		r.count = 0
		return EnqueueVerdict{Drop: true}
	}
	switch {
	case r.avg < float64(r.cfg.MinTh):
		r.count = -1
		return EnqueueVerdict{}
	case r.avg >= float64(r.cfg.MaxTh):
		r.count = 0
		r.stats.EarlyDrops++
		return EnqueueVerdict{Drop: true, Early: true}
	}
	r.count++
	pb := r.maxP * (r.avg - float64(r.cfg.MinTh)) / float64(r.cfg.MaxTh-r.cfg.MinTh)
	pa := 1.0
	if cp := float64(r.count) * pb; cp < 1 {
		pa = pb / (1 - cp)
	}
	if r.rng == nil {
		r.rng = rand.New(rand.NewSource(r.cfg.Seed)) //nolint:gosec // simulation, not crypto
	}
	if r.rng.Float64() < pa {
		r.count = 0
		if r.cfg.ECN && p.ECT {
			r.stats.Marks++
			return EnqueueVerdict{Mark: true}
		}
		r.stats.EarlyDrops++
		return EnqueueVerdict{Drop: true, Early: true}
	}
	return EnqueueVerdict{}
}

// updateAvg advances the EWMA for one arrival that finds occupancy q.
func (r *red) updateAvg(q State, now sim.Time) {
	if q.Len == 0 && r.hasArrival {
		// Idle decay: the estimator would have seen ~m empty samples had
		// packets kept arriving every MeanPktTime.
		m := float64(now.Sub(r.lastArrival)) / float64(r.cfg.MeanPktTime)
		if m > 0 {
			r.avg *= math.Pow(1-r.cfg.Wq, m)
		}
	} else {
		r.avg = (1-r.cfg.Wq)*r.avg + r.cfg.Wq*float64(q.Len)
	}
	r.hasArrival = true
	r.lastArrival = now
}

// adapt is ARED's AIMD step: nudge maxP up when the average sits above
// the band's upper target, decay it when below the lower target.
func (r *red) adapt() {
	band := float64(r.cfg.MaxTh - r.cfg.MinTh)
	low := float64(r.cfg.MinTh) + 0.4*band
	high := float64(r.cfg.MinTh) + 0.6*band
	switch {
	case r.avg > high && r.maxP < 0.5:
		add := 0.01
		if q := r.maxP / 4; q < add {
			add = q
		}
		r.maxP += add
		if r.maxP > 0.5 {
			r.maxP = 0.5
		}
	case r.avg < low && r.maxP > 0.01:
		r.maxP *= 0.9
		if r.maxP < 0.01 {
			r.maxP = 0.01
		}
	}
}

func (r *red) OnDequeue(Pkt, time.Duration, State, sim.Time) DequeueVerdict {
	return DequeueVerdict{}
}

func (r *red) OnRemove(Pkt) {}

func (r *red) Stats() Stats {
	s := r.stats
	s.AvgQueue = r.avg
	s.MaxP = r.maxP
	return s
}
