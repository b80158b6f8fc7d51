package conformance

import (
	"fmt"
	"math/rand"
	"time"

	"tcptrim/internal/core"
	"tcptrim/internal/netsim"
	"tcptrim/internal/sim"
	"tcptrim/internal/tcp"
)

// Train is one application burst: Bytes released at Start.
type Train struct {
	Bytes int
	Start time.Duration
}

// Scenario is a fully-specified conformance workload: a shadowed TRIM
// connection driving randomized ON/OFF packet trains across a
// fault-injected bottleneck, optionally against Reno cross-traffic. A
// Scenario is a pure value — running it is deterministic, so a failing
// seed replays byte-identically and shrinks cleanly.
type Scenario struct {
	Seed int64

	// Topology: sender — switch — receiver, all links identical.
	Rate   netsim.Bitrate
	Delay  time.Duration
	Queue  int
	MinRTO time.Duration

	// Connection options.
	SACK       bool
	DelayedAck time.Duration

	// Cfg is the TRIM configuration under test (deviation knobs
	// included, so declared deviations are exercised at every setting).
	Cfg core.Config

	// Trains drive the shadowed connection.
	Trains []Train
	// CrossTrains drive one Reno connection sharing the bottleneck,
	// building real queues (and hence RTT ≥ K episodes and losses).
	CrossTrains []Train

	// Fault injection on the bottleneck (forward data / reverse ACKs).
	Loss         netsim.GEConfig
	ReorderProb  float64
	ReorderExtra time.Duration
	DupProb      float64
	Jitter       time.Duration

	Horizon time.Duration
}

// Describe summarizes the scenario for reports.
func (sc Scenario) Describe() string {
	faults := ""
	if sc.Loss.Enabled() {
		faults += "L"
	}
	if sc.ReorderProb > 0 {
		faults += "R"
	}
	if sc.DupProb > 0 {
		faults += "D"
	}
	if sc.Jitter > 0 {
		faults += "J"
	}
	if faults == "" {
		faults = "-"
	}
	return fmt.Sprintf("trains=%d cross=%d faults=%s sack=%v dack=%v pdf=%g",
		len(sc.Trains), len(sc.CrossTrains), faults, sc.SACK, sc.DelayedAck > 0,
		sc.Cfg.WithDefaults().ProbeDeadlineFactor)
}

// GenScenario draws a random scenario from the seed. Every draw is a
// pure function of the seed (sim.NewRand), so the same seed always
// yields the same scenario.
func GenScenario(seed int64) Scenario {
	rng := sim.NewRand(seed)
	sc := Scenario{Seed: seed}

	rates := []netsim.Bitrate{netsim.Gbps, 100 * netsim.Mbps, 10 * netsim.Gbps}
	sc.Rate = rates[rng.Intn(len(rates))]
	sc.Delay = 20*time.Microsecond + time.Duration(rng.Intn(180))*time.Microsecond
	sc.Queue = 10 + rng.Intn(90)
	sc.MinRTO = time.Duration(5+rng.Intn(20)) * time.Millisecond
	sc.SACK = rng.Intn(2) == 1
	if rng.Intn(3) == 0 {
		sc.DelayedAck = 200 * time.Microsecond
	}

	// Deviation knobs: exercise the default, the paper-literal deadline,
	// and a loose one; occasionally a configured D, a fixed K, a
	// non-default alpha, and the two ablations.
	factors := []float64{0, 0, 1, 2, 3}
	sc.Cfg.ProbeDeadlineFactor = factors[rng.Intn(len(factors))]
	if rng.Intn(4) == 0 {
		sc.Cfg.BaseRTT = 4 * sc.Delay // the topology's queue-free RTT
	}
	if rng.Intn(8) == 0 {
		sc.Cfg.K = time.Duration(200+rng.Intn(800)) * time.Microsecond
	}
	alphas := []float64{0, 0, 0, 0.125, 0.5}
	sc.Cfg.Alpha = alphas[rng.Intn(len(alphas))]
	if rng.Intn(10) == 0 {
		sc.Cfg.DisableProbing = true
	}
	if rng.Intn(10) == 0 {
		sc.Cfg.DisableQueueControl = true
	}

	sc.Trains = genTrains(rng, 3+rng.Intn(14))
	for i := 0; i < rng.Intn(3); i++ {
		sc.CrossTrains = append(sc.CrossTrains, genTrains(rng, 2+rng.Intn(6))...)
	}

	// Fault layer: bursty loss, reordering, duplication, jitter — each
	// armed independently so scenarios cover the full cross product.
	if rng.Intn(2) == 0 {
		sc.Loss = netsim.GEConfig{
			PGoodBad: 0.005 + 0.015*rng.Float64(),
			PBadGood: 0.1 + 0.4*rng.Float64(),
			LossBad:  0.3 + 0.7*rng.Float64(),
		}
	}
	if rng.Intn(3) == 0 {
		sc.ReorderProb = 0.01 + 0.04*rng.Float64()
		sc.ReorderExtra = time.Duration(50+rng.Intn(150)) * time.Microsecond
	}
	if rng.Intn(3) == 0 {
		sc.DupProb = 0.005 + 0.015*rng.Float64()
	}
	if rng.Intn(3) == 0 {
		sc.Jitter = time.Duration(20+rng.Intn(130)) * time.Microsecond
	}

	last := time.Duration(0)
	for _, t := range sc.Trains {
		if t.Start > last {
			last = t.Start
		}
	}
	sc.Horizon = last + 500*time.Millisecond
	return sc
}

// genTrains draws an ON/OFF train schedule: sizes mix single-segment,
// small, and large trains; gaps mix sub-RTT spacing (no probe) with
// multi-millisecond idle periods (probe rounds).
func genTrains(rng *rand.Rand, n int) []Train {
	trains := make([]Train, 0, n)
	start := time.Duration(rng.Intn(1000)) * time.Microsecond
	for i := 0; i < n; i++ {
		var segs int
		switch r := rng.Intn(10); {
		case r < 2:
			segs = 1
		case r < 8:
			segs = 2 + rng.Intn(29)
		default:
			segs = 50 + rng.Intn(151)
		}
		bytes := segs*tcp.DefaultMSS - rng.Intn(tcp.DefaultMSS/2)
		trains = append(trains, Train{Bytes: bytes, Start: start})
		if rng.Intn(2) == 0 {
			start += time.Duration(rng.Intn(300)) * time.Microsecond
		} else {
			start += 500*time.Microsecond + time.Duration(rng.Intn(4500))*time.Microsecond
		}
	}
	return trains
}

// Result is one scenario run's outcome.
type Result struct {
	Divergences []Divergence
	// Total counts every divergence (Divergences is capped).
	Total int
	// Activity counters prove the run exercised the machinery.
	Hooks           int
	ProbeRounds     int
	ProbeTimeouts   int
	QueueReductions int
	Timeouts        int
	TrainsDone      int
}

// RunScenario executes the scenario with the live policy shadowed by
// the Oracle and returns every divergence found.
func RunScenario(sc Scenario) (*Result, error) {
	return runScenarioWith(sc, NewShadow(sc.Cfg))
}

// runScenarioWith runs the scenario with a caller-supplied shadow
// (tests use it to prove a tampered oracle is detected).
func runScenarioWith(sc Scenario, shadow *Shadow) (*Result, error) {
	sched := sim.NewScheduler()
	net := netsim.NewNetwork(sched)
	rng := sim.NewRand(sc.Seed)

	link := netsim.LinkConfig{
		Rate:  sc.Rate,
		Delay: sc.Delay,
		Queue: netsim.QueueConfig{CapPackets: sc.Queue},
	}
	hs := net.AddHost("s")
	sw := net.AddSwitch("sw")
	hr := net.AddHost("r")
	net.Connect(hs, sw, link)
	fwd, rev := net.Connect(sw, hr, link)
	var hx *netsim.Host
	if len(sc.CrossTrains) > 0 {
		hx = net.AddHost("x")
		net.Connect(hx, sw, link)
	}

	if sc.Loss.Enabled() {
		fwd.InjectGilbertElliott(sc.Loss, rng)
	}
	if sc.ReorderProb > 0 {
		fwd.InjectReorder(sc.ReorderProb, sc.ReorderExtra, rng)
		rev.InjectReorder(sc.ReorderProb, sc.ReorderExtra, rng)
	}
	if sc.DupProb > 0 {
		fwd.InjectDuplicate(sc.DupProb, rng)
	}
	if sc.Jitter > 0 {
		fwd.InjectJitter(sc.Jitter, rng)
		rev.InjectJitter(sc.Jitter, rng)
	}

	senderStack := tcp.NewStack(net, hs)
	recvStack := tcp.NewStack(net, hr)
	conn, err := tcp.NewConn(tcp.Config{
		Sender:     senderStack,
		Receiver:   recvStack,
		Flow:       1,
		CC:         shadow,
		LinkRate:   sc.Rate,
		MinRTO:     sc.MinRTO,
		SACK:       sc.SACK,
		DelayedAck: sc.DelayedAck,
	})
	if err != nil {
		return nil, err
	}

	res := &Result{}
	schedule := func(c *tcp.Conn, trains []Train, counted bool) error {
		for _, tr := range trains {
			bytes := tr.Bytes
			if _, err := c.Scheduler().At(sim.At(tr.Start), func() {
				c.SendTrain(bytes, func(tcp.TrainResult) {
					if counted {
						res.TrainsDone++
					}
				})
			}); err != nil {
				return err
			}
		}
		return nil
	}
	if err := schedule(conn, sc.Trains, true); err != nil {
		return nil, err
	}

	if hx != nil {
		cross, err := tcp.NewConn(tcp.Config{
			Sender:   tcp.NewStack(net, hx),
			Receiver: recvStack,
			Flow:     2,
			CC:       tcp.NewReno(),
			MinRTO:   sc.MinRTO,
		})
		if err != nil {
			return nil, err
		}
		if err := schedule(cross, sc.CrossTrains, false); err != nil {
			return nil, err
		}
	}

	sched.RunUntil(sim.At(sc.Horizon))

	res.Divergences = shadow.Finish()
	res.Total = shadow.Total()
	res.Hooks = shadow.traceN
	res.ProbeRounds = shadow.Live().ProbeRounds()
	res.ProbeTimeouts = shadow.Live().ProbeTimeouts()
	res.QueueReductions = shadow.Live().QueueReductions()
	res.Timeouts = conn.Stats().Timeouts
	return res, nil
}
