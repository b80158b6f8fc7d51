package experiment

import (
	"math/rand"
	"slices"
	"time"

	"tcptrim/internal/aqm"
	"tcptrim/internal/hybrid"
	"tcptrim/internal/netsim"
	"tcptrim/internal/sim"
	"tcptrim/internal/tcp"
	"tcptrim/internal/topology"
	"tcptrim/internal/workload"
)

// scenario declares one cell's world as a value. The paper evaluates one
// shape throughout: servers holding persistent HTTP connections to a
// front-end over a star (Sec. II.B, Figs. 4–7, 9 and 13) or the Fig. 8
// two-level tree, sending packet trains beside long background flows into
// one switch queue. A cell states what it varies; build derives the rest
// in one place and run fixes the order a cell is armed and run in.
type scenario struct {
	// The topology: a star of servers senders on link, or tree when set.
	servers int
	link    netsim.LinkConfig
	tree    *topology.TwoLevelTreeConfig
	// proto chooses each connection's policy (NewCC with baseRTT) and
	// whether it uses ECN; newCC, when set, replaces the policy alone.
	proto   Protocol
	baseRTT time.Duration
	newCC   func() tcp.CongestionControl
	// tcp is what the connections share beyond ECN and LinkRate, which
	// come from proto and the access link.
	tcp tcp.Config
	// aqm, when set, names the star's queue discipline (aqm.Parse);
	// recovery, when set, the loss-recovery policy (tcp.NewRecoveryPolicy),
	// and tracks attaches the T-RACKs agent to the star's switch. Unset
	// keeps link's queue and Classic, with no agent.
	aqm, recovery string
	// seed seeds the scene's rng; RED draws from SplitSeed(seed, 4).
	seed     int64
	fidelity hybrid.Fidelity
	connsPer int
	// checkEvery, when set, arms the invariant checker at that period;
	// drainEvery is how often the drain watch looks (0 means 10 ms).
	checkEvery, drainEvery time.Duration
}

// scene is a built scenario: its scheduler, rng, network, star or tree,
// and fleet, ready to be loaded and run.
type scene struct {
	*simEnv
	rng   *rand.Rand
	net   *netsim.Network
	star  *topology.Star
	tree  *topology.TwoLevelTree
	fleet *hybrid.Fleet

	checkEvery, drainEvery time.Duration
}

// build makes the scenario's world under opts (through newSimEnv, its
// only reading of opts).
func (s scenario) build(opts Options) (*scene, error) {
	newCC := s.newCC
	if newCC == nil {
		if _, err := NewCC(s.proto, s.baseRTT); err != nil {
			return nil, err
		}
		newCC = func() tcp.CongestionControl { return mustCC(s.proto, s.baseRTT) }
	}
	sc := &scene{simEnv: newSimEnv(opts), checkEvery: s.checkEvery, drainEvery: s.drainEvery}
	sc.rng = sc.rand(s.seed)
	link := s.link
	if s.aqm != "" {
		cfg, err := aqm.Parse(s.aqm)
		if err != nil {
			return nil, err
		}
		if cfg.Kind == aqm.CoDel && link.Queue.CapPackets <= aqm.TinyBufferPackets {
			cfg.CoDel = aqm.TinyCoDelConfig()
		}
		if cfg.Kind == aqm.RED {
			cfg.RED.Seed = SplitSeed(s.seed, 4)
		}
		link.Queue.AQM = cfg
	}
	var senders []*netsim.Host
	var frontEnd *netsim.Host
	if s.tree != nil {
		sc.tree = topology.NewTwoLevelTree(sc.sched, *s.tree)
		sc.net, senders, frontEnd = sc.tree.Net, sc.tree.AllServers(), sc.tree.FrontEnd
		if link = s.tree.EdgeLink; link.Rate == 0 {
			link.Rate = netsim.Gbps // the tree's default edge
		}
	} else {
		sc.star = topology.NewStar(sc.sched, s.servers, link)
		sc.net, senders, frontEnd = sc.star.Net, sc.star.Senders, sc.star.FrontEnd
	}
	// The environment's last network, if any, hands on its packets and
	// queue bands; nothing of it runs again.
	sc.net.Recycle(sc.simEnv.net)
	sc.simEnv.net = sc.net
	var newRecovery func() tcp.RecoveryPolicy
	if s.recovery != "" {
		newRecovery = func() tcp.RecoveryPolicy { return mustRecovery(s.recovery) }
	}
	if s.recovery == "tracks" {
		if _, err := netsim.AttachTRACKs(sc.net, sc.star.Switch, netsim.TRACKsConfig{}); err != nil {
			return nil, err
		}
	}
	base := s.tcp
	base.ECN, base.LinkRate = UsesECN(s.proto), link.Rate
	var err error
	sc.fleet, err = hybrid.NewFleet(sc.net, hybrid.FleetConfig{
		Senders:        senders,
		ConnsPerSender: s.connsPer,
		FrontEnd:       frontEnd,
		NewCC:          newCC,
		NewRecovery:    newRecovery,
		Base:           base,
		Fidelity:       s.fidelity,
		// Likewise the last fleet hands on its connections' objects.
		Recycle: sc.simEnv.fleet,
	})
	if err != nil {
		return nil, err
	}
	sc.simEnv.fleet = sc.fleet
	return sc, nil
}

// background starts an endless background train on flows [from, to) at
// the instant at.
func (sc *scene) background(from, to int, at time.Duration) error {
	for i := from; i < to; i++ {
		if err := sc.fleet.StartBackgroundFlow(i, sim.At(at), concBackground); err != nil {
			return err
		}
	}
	return nil
}

// responses schedules n responses on each flow in [from, to) from the
// instant at, sizes and gaps drawn from the scene's rng flow by flow.
// The schedules are cut from the environment's slab, grown at most once
// per call; at packet fidelity each goes to the release queue as one run,
// at hybrid fidelity the timeline is sized for all of them once.
func (sc *scene) responses(from, to int, at time.Duration, n int, sizes workload.SizeDist, gaps workload.GapDist) error {
	sc.fleet.Reserve((to - from) * n)
	sc.trains = slices.Grow(sc.trains, (to-from)*n)
	for i := from; i < to; i++ {
		k := len(sc.trains)
		sc.trains = workload.AppendScheduleCount(sc.trains, sc.rng, sim.At(at), n, sizes, gaps)
		if err := sc.fleet.ScheduleTrains(i, sc.trains[k:len(sc.trains):len(sc.trains)]); err != nil {
			return err
		}
	}
	return nil
}

// run simulates to horizon, or, when done is set, until done holds at a
// look of the drain watch that starts at drainFrom. The order is fixed:
// the drain watch, the fleet's Arm, the invariant ticks, the run, the
// final invariant check, the fleet's asynchronous error.
func (sc *scene) run(horizon, drainFrom time.Duration, done func() bool) error {
	if done != nil {
		every := sc.drainEvery
		if every == 0 {
			every = 10 * time.Millisecond
		}
		if err := sc.stopWhen(sim.At(drainFrom), every, done); err != nil {
			return err
		}
	}
	if err := sc.fleet.Arm(); err != nil {
		return err
	}
	if sc.checkEvery > 0 {
		sc.net.ScheduleInvariantChecks(sc.checkEvery)
	}
	if err := sc.runUntil(sim.At(horizon)); err != nil {
		return err
	}
	if sc.checkEvery > 0 {
		sc.net.CheckInvariants()
	}
	return sc.fleet.Err()
}
