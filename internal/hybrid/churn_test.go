package hybrid

// Churn without garbage: what a materialize → train → demote cycle may
// allocate, what a fully demoted fleet may keep, what a driver step may
// look at, and that connection shells and policy objects moving between
// flows — under every congestion-control and recovery kind — leave
// hybrid fidelity in lockstep with packet fidelity.

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"tcptrim/internal/cc"
	"tcptrim/internal/core"
	"tcptrim/internal/sim"
	"tcptrim/internal/tcp"
	"tcptrim/internal/topology"
)

// policyKinds is four window policies times three recovery policies. Two
// of the window policies can be recycled (TCP-TRIM, Reno) and two cannot
// (DCTCP, CUBIC); every recovery policy can.
const policyKinds = 4 * 3

// policyPair returns pure factories for combination kind of policyKinds:
// a fleet has one kind, because a finished flow's policy objects serve
// whichever flow materializes next (FleetConfig).
func policyPair(kind int) (func() tcp.CongestionControl, func() tcp.RecoveryPolicy) {
	newCC := func() tcp.CongestionControl {
		switch kind % 4 {
		case 0:
			return core.New(core.Config{})
		case 1:
			return cc.NewDCTCP()
		case 2:
			return cc.NewCubic()
		}
		return tcp.NewReno()
	}
	newRecovery := func() tcp.RecoveryPolicy {
		p, err := tcp.NewRecoveryPolicy(tcp.RecoveryNames()[kind/4%3])
		if err != nil {
			panic(err)
		}
		return p
	}
	return newCC, newRecovery
}

// runWideFleet draws a fleet of 16 to 64 flows whose first trains are
// released one after the other in flow order, then up to one more train
// per flow at a random later instant, under the policy pair its shape
// selects, runs it at both fidelities in lockstep and returns the hybrid
// fleet and the pair's kind. Peak live stays near epoch / release gap,
// far below the flow count, so each shell serves many flows, and so does
// each policy object of a flow that got no second train.
func runWideFleet(tb testing.TB, rng *rand.Rand) (*Fleet, int) {
	tb.Helper()
	n := 4 + int(rng.Int63n(5))
	per := 4 + int(rng.Int63n(5))
	// Five sender counts by five fan-outs land on every one of the twelve
	// kinds, and no further draw disturbs how a seed decodes.
	kind := (n*5 + per) % policyKinds
	epoch := time.Duration(1+rng.Int63n(20)) * time.Millisecond
	var trains []trainSpec
	add := func(flow int, at time.Duration) {
		trains = append(trains, trainSpec{
			flow:  flow,
			at:    sim.At(at + time.Duration(len(trains)+1)),
			bytes: 1 + int(rng.Int63n(20*tcp.DefaultMSS)),
		})
	}
	var last time.Duration
	for flow := 0; flow < n*per; flow++ {
		last += time.Duration(1+rng.Int63n(30)) * time.Millisecond
		add(flow, last)
	}
	for flow := 0; flow < n*per; flow++ {
		if rng.Int63n(2) == 0 {
			add(flow, last+time.Duration(1+rng.Int63n(400))*time.Millisecond)
		}
	}
	pkt, hyb := runScenarioFrom(tb, n, func() FleetConfig {
		newCC, newRecovery := policyPair(kind)
		return FleetConfig{
			ConnsPerSender: per, Epoch: epoch,
			NewCC: newCC, NewRecovery: newRecovery,
			Base: tcp.Config{ECN: true, MinRTO: 10 * time.Millisecond},
		}
	}, trains, sim.At(last+4*time.Second))
	compareFleets(tb, pkt, hyb)
	if hyb.ArenaCap() != hyb.PeakLive() {
		tb.Errorf("arena made %d slots for a peak of %d live", hyb.ArenaCap(), hyb.PeakLive())
	}
	return hyb, kind
}

// held returns the policy objects flow i holds, none if it holds no slot.
func held(f *Fleet, i int) policies {
	if k := f.store[i].pol; k != 0 {
		return f.pols[k-1]
	}
	return policies{}
}

// freed returns the policy objects waiting in free slots, in the order
// the slots were freed.
func freed(f *Fleet) (ccs []tcp.CongestionControl, recs []tcp.RecoveryPolicy) {
	for _, k := range f.freePols {
		p := f.pols[k-1]
		if p.cc != nil {
			ccs = append(ccs, p.cc)
		}
		if p.rec != nil {
			recs = append(recs, p.rec)
		}
	}
	return ccs, recs
}

// TestHybridShellsCrossFlowsAndPolicies runs wide fleets, with the
// full-scan oracle on, until every policy pair has had one: under each,
// shells and — where the kind allows — policy objects pass from flow to
// flow and the fidelities stay in lockstep. (One shell serving a TCP-TRIM
// flow and then a CUBIC flow is pinned in internal/tcp, against the
// arena directly; a fleet has one kind.)
func TestHybridShellsCrossFlowsAndPolicies(t *testing.T) {
	sim.SetInvariantChecks(true)
	t.Cleanup(func() { sim.SetInvariantChecks(false) })
	seen := map[int]bool{}
	for seed := int64(4); len(seen) < policyKinds; seed += 4 {
		if seed > 4000 {
			t.Fatalf("only %d of %d policy pairs drawn", len(seen), policyKinds)
		}
		hyb, kind := runWideFleet(t, sim.NewRand(seed))
		if seen[kind] {
			continue
		}
		seen[kind] = true
		if hyb.Live() != 0 {
			t.Errorf("kind %d: %d conns still live", kind, hyb.Live())
		}
		flows, shells := hyb.NumFlows(), hyb.ArenaCap()
		if shells == 0 || flows < 4*shells {
			t.Errorf("kind %d: %d flows over %d shells: shells did not pass between flows", kind, flows, shells)
		}
		for i := 0; i < flows; i++ {
			if hyb.DeliveredBytes(i) == 0 {
				t.Errorf("kind %d: flow %d never ran", kind, i)
			}
			if hyb.store[i].pol != 0 {
				t.Errorf("kind %d: finished flow %d still holds policy slot %d", kind, i, hyb.store[i].pol)
			}
		}
		// Every recovery policy comes back; a window policy does if it can
		// be reset, and DCTCP and CUBIC, which cannot, go to the collector
		// and are made per flow as they always were. Every slot is free
		// and the slab is no longer than the flows that held one at once.
		ccs, recs := freed(hyb)
		if len(recs) == 0 || len(hyb.freePols) != len(hyb.pols) || len(hyb.pols) >= flows {
			t.Errorf("kind %d: %d recovery policies in %d free slots of %d, for %d flows",
				kind, len(recs), len(hyb.freePols), len(hyb.pols), flows)
		}
		if recyclable := kind%4 == 0 || kind%4 == 3; recyclable != (len(ccs) > 0) {
			t.Errorf("kind %d: %d window policies in free slots", kind, len(ccs))
		}
	}
}

// TestHybridLaterReleaseKeepsItsPolicy: window inheritance across trains
// is the paper's subject, and TCP-TRIM's half of it (smoothed and minimum
// RTT, K, the probe history) lives in the policy object. Only a flow with
// no release left gives its objects up; one whose second train is still
// to come keeps the very objects its first train ran on, whatever other
// flows finish and start in between.
func TestHybridLaterReleaseKeepsItsPolicy(t *testing.T) {
	sim.SetInvariantChecks(true)
	t.Cleanup(func() { sim.SetInvariantChecks(false) })
	at := func(ms int) sim.Time { return sim.At(time.Duration(ms) * time.Millisecond) }
	trains := []trainSpec{
		{flow: 0, at: at(5), bytes: 30 * tcp.DefaultMSS},   // A, first train
		{flow: 1, at: at(60), bytes: 10 * tcp.DefaultMSS},  // B, its only one
		{flow: 2, at: at(120), bytes: 10 * tcp.DefaultMSS}, // C, after B is over
		{flow: 0, at: at(300), bytes: 30 * tcp.DefaultMSS}, // A again
	}
	mk := func() FleetConfig {
		return FleetConfig{
			ConnsPerSender: 1, Epoch: 5 * time.Millisecond,
			NewCC: func() tcp.CongestionControl { return core.New(core.Config{}) },
		}
	}
	cfg := mk()
	cfg.Fidelity = FidelityHybrid
	hyb, sched := buildFleetFrom(t, 3, cfg)
	for _, tr := range trains {
		if err := hyb.ScheduleResponse(tr.flow, tr.at, tr.bytes); err != nil {
			t.Fatal(err)
		}
	}
	if err := hyb.Arm(); err != nil {
		t.Fatal(err)
	}
	sched.RunUntil(at(50))
	heldA := held(hyb, 0)
	polA, recA := heldA.cc, heldA.rec
	if hyb.Live() != 0 || polA == nil || recA == nil {
		t.Fatalf("after A's first train: %d live, policies %v %v", hyb.Live(), polA, recA)
	}
	if polA.(*core.Trim).SmoothRTT() == 0 {
		t.Fatal("A's first train left no RTT estimate to inherit")
	}
	sched.RunUntil(at(60)) // B's release has fired, its train is on the wire
	polB := held(hyb, 1).cc
	sched.RunUntil(at(110))
	if free, _ := freed(hyb); held(hyb, 1).cc != nil || len(free) != 1 || free[0] != polB {
		t.Fatalf("B is over: its policy %p should be in the one free slot; free are %v", polB, free)
	}
	if got := polB.(*core.Trim).SmoothRTT(); got != 0 {
		t.Errorf("B's recycled policy still carries B's RTT estimate %v", got)
	}
	sched.RunUntil(at(120))
	if free, _ := freed(hyb); held(hyb, 2).cc != polB || len(free) != 0 {
		t.Errorf("C took policy %p, want B's %p; free are %v", held(hyb, 2).cc, polB, free)
	}
	if held(hyb, 0) != heldA {
		t.Errorf("A lost its policy objects between its trains")
	}
	sched.RunUntil(at(300))
	if held(hyb, 0) != heldA || hyb.conns[0] == nil || hyb.conns[0].CC() != polA {
		t.Errorf("A's second train does not run on the objects of its first")
	}
	sched.RunUntil(at(2000))
	if err := hyb.Err(); err != nil {
		t.Fatal(err)
	}
	if free, _ := freed(hyb); hyb.Live() != 0 || held(hyb, 0).cc != nil || len(free) != 2 || len(hyb.pols) != 2 {
		t.Errorf("at the end: %d live, A holds %v, %d policies free in a slab of %d",
			hyb.Live(), held(hyb, 0).cc, len(free), len(hyb.pols))
	}
	// And none of the handing over shows: the same schedule at packet
	// fidelity, where every flow owns its objects for the whole run.
	pkt, again := runScenarioFrom(t, 3, mk, trains, at(2000))
	compareFleets(t, pkt, again)
	compareFleets(t, pkt, hyb)
}

// TestHybridSweepLooksOnlyAtTouched pins the driver's complexity. 64
// endless background flows stay materialized while 2,000 single-train
// flows are released two microseconds apart; the driver steps at every
// release. A sweep that walked the live connections would evaluate
// Quiescent at least 64 × 2,000 times; one that walks the connections
// that ran since the previous step evaluates a handful per release —
// each released flow a few times (its release, its data arriving, its
// ACKs), a background flow only in the steps right after one of its own
// packets — whatever the number of live connections, which here grows
// into the thousands because the background flows keep the buffer full.
// The full-scan oracle runs alongside: looking at few must not mean
// missing any.
func TestHybridSweepLooksOnlyAtTouched(t *testing.T) {
	sim.SetInvariantChecks(true)
	t.Cleanup(func() { sim.SetInvariantChecks(false) })
	const background, released = 64, 2000
	hyb, sched := buildFleet(t, 8, (background+released)/8, tcp.Config{}, FidelityHybrid, 5*time.Millisecond)
	for i := 0; i < background; i++ {
		if err := hyb.StartBackgroundFlow(i, sim.At(time.Millisecond), 1<<30); err != nil {
			t.Fatal(err)
		}
	}
	start := 20 * time.Millisecond
	for k := 0; k < released; k++ {
		at := sim.At(start + time.Duration(2*(k+1))*time.Microsecond)
		if err := hyb.ScheduleResponse(background+k, at, tcp.DefaultMSS); err != nil {
			t.Fatal(err)
		}
	}
	if err := hyb.Arm(); err != nil {
		t.Fatal(err)
	}
	sched.RunUntil(sim.At(start))
	if hyb.Live() != background {
		t.Fatalf("%d live before the releases, want the %d background flows", hyb.Live(), background)
	}
	before := hyb.evals
	sched.RunUntil(sim.At(start + 2*(released+1)*time.Microsecond))
	during := hyb.evals - before
	sched.RunUntil(sim.At(start + 300*time.Millisecond))
	if err := hyb.Err(); err != nil {
		t.Fatal(err)
	}
	if done := len(hyb.Collector().Responses()); done == 0 || hyb.Live() < background {
		t.Fatalf("%d of %d trains done, %d live", done, released, hyb.Live())
	}
	t.Logf("%d Quiescent evaluations over %d release steps with %d to %d live (a full scan: at least %d)",
		during, released, background, hyb.PeakLive(), background*released)
	if during > 4*released {
		t.Errorf("%d Quiescent evaluations over %d release steps: the sweep is looking at connections that did not run",
			during, released)
	}
}

// churnFleet is 200 flows that each carry a three-segment train in each
// of four rounds a second apart, every flow demoted between rounds, in
// flow order or its reverse by turns. Two rounds warm the fleet — shells,
// pools and tables in the first; in the second the rings of the pipes,
// which see a whole train in one burst only once a window is inherited —
// the third is steady-state churn, and in the fourth every flow is over
// when it demotes.
func churnFleet(tb testing.TB) (fleet *Fleet, sched *sim.Scheduler, flows int) {
	tb.Helper()
	const n, per = 8, 25
	fleet, sched = buildFleet(tb, n, per, tcp.Config{}, FidelityHybrid, 5*time.Millisecond)
	flows = n * per
	for round := 0; round < 4; round++ {
		for k := 0; k < flows; k++ {
			i := k
			if round%2 == 1 {
				i = flows - 1 - k
			}
			at := sim.At(time.Duration(round)*time.Second + time.Duration(5+2*k)*time.Millisecond)
			if err := fleet.ScheduleResponse(i, at, 3*tcp.DefaultMSS); err != nil {
				tb.Fatal(err)
			}
		}
	}
	if err := fleet.Arm(); err != nil {
		tb.Fatal(err)
	}
	return fleet, sched, flows
}

func TestHybridCycleAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own account")
	}
	fleet, sched, flows := churnFleet(t)
	settled := func(rounds int) {
		t.Helper()
		if err := fleet.Err(); err != nil {
			t.Fatal(err)
		}
		if done := len(fleet.Collector().Responses()); fleet.Live() != 0 || done != rounds*flows {
			t.Fatalf("after round %d: %d live, %d of %d trains done", rounds, fleet.Live(), done, rounds*flows)
		}
	}
	perCycle := func(until time.Duration) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sched.RunUntil(sim.At(until))
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / float64(flows)
	}
	sched.RunUntil(sim.At(1900 * time.Millisecond))
	settled(2)
	// The Conn, its callbacks, its slices, the restored state, the
	// driver's re-arm and the completion callback (one per sink, bound
	// by Arm) all come from what set-up and the first rounds left.
	// (One per cycle, the callback, before it was shared; seven before
	// shells were.)
	steady := perCycle(2900 * time.Millisecond)
	settled(3)
	t.Logf("%.2f allocations per materialize-train-demote cycle", steady)
	if steady > 0.05 {
		t.Errorf("%.2f allocations per cycle, want 0", steady)
	}
	// A last cycle ends by freeing the flow's policy slot. Nobody takes
	// one here (no flow is new in round four), so the free list grows to
	// the fleet's size: one slice doubling.
	last := perCycle(4 * time.Second)
	settled(4)
	t.Logf("%.2f allocations per cycle that retires its flow", last)
	if ccs, recs := freed(fleet); last > 0.15 || len(ccs) != flows || len(recs) != flows {
		t.Errorf("%.2f allocations per retiring cycle, %d + %d policies retired; want the free list's growth only, and %d each",
			last, len(ccs), len(recs), flows)
	}
}

func TestHybridRetainedHeapFollowsLiveConns(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes under the race runtime are not the program's")
	}
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	const n, per = 20, 100
	base := heap()
	fleet, sched := buildFleet(t, n, per, tcp.Config{}, FidelityHybrid, 5*time.Millisecond)
	for i := 0; i < n*per; i++ {
		at := sim.At(time.Duration(5+i) * time.Millisecond)
		if err := fleet.ScheduleResponse(i, at, 3*tcp.DefaultMSS); err != nil {
			t.Fatal(err)
		}
	}
	if err := fleet.Arm(); err != nil {
		t.Fatal(err)
	}
	sched.RunUntil(sim.At(3 * time.Second))
	if err := fleet.Err(); err != nil {
		t.Fatal(err)
	}
	if fleet.Live() != 0 || len(fleet.Collector().Responses()) != n*per {
		t.Fatalf("%d live, %d of %d trains done", fleet.Live(), len(fleet.Collector().Responses()), n*per)
	}
	perFlow := float64(heap()-base) / float64(n*per)
	runtime.KeepAlive(fleet)
	runtime.KeepAlive(sched)
	// Measured (go1.24, amd64): 343 B per demoted flow — the flow store's
	// 128-byte record, the flow's label, its 24-byte timeline entry, its
	// completion record and, because this fleet labels responses per
	// flow, a sink and its completion callback per flow (one per fleet
	// where the label is shared, as in fig8million); its Reno and classic
	// objects wait in a free policy slot, a handful for the whole fleet —
	// against 451 B with thirteen parallel store arrays and two policy
	// interface slots per flow, and 1 250 B when each flow's policy still
	// pinned the tcp.Conn of its last train. The bound is the measurement
	// plus a third.
	t.Logf("%.0f B of heap per demoted flow", perFlow)
	if perFlow > 457 {
		t.Errorf("%.0f B of heap per demoted flow: demoted flows pin connection state", perFlow)
	}
}

func TestNewConnAllocationCount(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own account")
	}
	sched := sim.NewScheduler()
	star := topology.NewStar(sched, 1, topology.DefaultStarLink(100))
	cfg := tcp.Config{
		Sender:   tcp.NewStack(star.Net, star.Senders[0]),
		Receiver: tcp.NewStack(star.Net, star.FrontEnd),
		Flow:     1, CC: tcp.NewReno(), Recovery: tcp.NewClassicRecovery(),
	}
	cycle := func() {
		c, err := tcp.NewConn(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Detach(); err != nil {
			t.Fatal(err)
		}
	}
	// Packet fidelity takes no arena and pays for the Conn alone: its hot
	// line and default recovery policy are fields of it, and its timers
	// are armed with package callbacks.
	if got := testing.AllocsPerRun(50, cycle); got != 1 {
		t.Errorf("NewConn without an arena: %v allocations, want 1", got)
	}
	cfg.Arena = tcp.NewArena()
	if got := testing.AllocsPerRun(50, cycle); got != 0 {
		t.Errorf("NewConn on a warm arena: %v allocations, want 0", got)
	}
}
