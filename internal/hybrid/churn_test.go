package hybrid

// Churn without garbage: what a materialize → train → demote cycle may
// allocate, what a fully demoted fleet may keep, and that connection
// shells moving between flows — across congestion-control and recovery
// kinds — leave hybrid fidelity in lockstep with packet fidelity.

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

// mixedPolicies returns factories that deal out four window policies and
// the three recovery policies in turn: twelve consecutive calls of the
// pair cover every combination.
func mixedPolicies() (func() tcp.CongestionControl, func() tcp.RecoveryPolicy) {
	var ccs, recs int
	newCC := func() tcp.CongestionControl {
		ccs++
		switch ccs % 4 {
		case 1:
			return core.New(core.Config{})
		case 2:
			return cc.NewDCTCP()
		case 3:
			return cc.NewCubic()
		}
		return tcp.NewReno()
	}
	newRecovery := func() tcp.RecoveryPolicy {
		recs++
		p, err := tcp.NewRecoveryPolicy(tcp.RecoveryNames()[recs%3])
		if err != nil {
			panic(err)
		}
		return p
	}
	return newCC, newRecovery
}

// runWideFleet draws a fleet of 16 to 64 flows whose first trains are
// released one after the other in flow order, then up to one more train
// per flow at a random later instant, with mixedPolicies dealing the
// kinds, runs it at both fidelities in lockstep and returns the hybrid
// fleet. Flow order matters: the factories count calls, packet fidelity
// calls them at setup in flow order and hybrid fidelity on first
// materialization. Peak live stays near epoch / release gap, far below
// the flow count, so each shell serves many flows of every kind.
func runWideFleet(tb testing.TB, rng *rand.Rand) *Fleet {
	tb.Helper()
	n := 4 + int(rng.Int63n(5))
	per := 4 + int(rng.Int63n(5))
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
		newCC, newRecovery := mixedPolicies()
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
	return hyb
}

func TestHybridShellsCrossFlowsAndPolicies(t *testing.T) {
	sim.SetInvariantChecks(true)
	t.Cleanup(func() { sim.SetInvariantChecks(false) })
	hyb := runWideFleet(t, sim.NewRand(8))
	if hyb.Live() != 0 {
		t.Errorf("%d conns still live", hyb.Live())
	}
	// Twelve kinds of connection; a shell has been each only if it served
	// a dozen flows at least.
	if flows, shells := hyb.NumFlows(), hyb.ArenaCap(); shells == 0 || flows < 12*shells {
		t.Errorf("%d flows over %d shells: shells did not cross every kind", flows, shells)
	}
	for i := 0; i < hyb.NumFlows(); i++ {
		if hyb.DeliveredBytes(i) == 0 {
			t.Errorf("flow %d never ran", i)
		}
	}
}

// churnFleet is 200 flows that each carry a three-segment train in each
// of three rounds a second apart, every flow demoted between rounds, in
// flow order or its reverse by turns. Two rounds warm the fleet — shells,
// pools and tables in the first; in the second the rings of the pipes,
// which see a whole train in one burst only once a window is inherited —
// and the third is steady-state churn.
func churnFleet(tb testing.TB) (fleet *Fleet, sched *sim.Scheduler, flows int) {
	tb.Helper()
	const n, per = 8, 25
	fleet, sched = buildFleet(tb, n, per, tcp.Config{}, FidelityHybrid, 5*time.Millisecond)
	flows = n * per
	for round := 0; round < 3; round++ {
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

func TestHybridCycleAllocatesOnlyItsCallback(t *testing.T) {
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
	sched.RunUntil(sim.At(1900 * time.Millisecond))
	settled(2)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sched.RunUntil(sim.At(3 * time.Second))
	runtime.ReadMemStats(&after)
	settled(3)
	// One object per cycle is the completion callback fire hands
	// SendTrain; the Conn, its callbacks, its slices, the restored state
	// and the driver's re-arm all come from what the first rounds left.
	// (At the parent of the change that added this test: 7 per cycle.)
	perCycle := float64(after.Mallocs-before.Mallocs) / float64(flows)
	t.Logf("%.2f allocations per materialize-train-demote cycle", perCycle)
	if perCycle > 1.05 {
		t.Errorf("%.2f allocations per cycle, want 1", perCycle)
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
	// Measured (go1.24, amd64): 438 B per demoted flow — the flow store's
	// 200, the flow's Reno and classic policy objects, its label, its
	// timeline entry and its completion record — against 1 250 B when
	// each flow's policy still pinned the tcp.Conn of its last train. The
	// bound sits between the two.
	t.Logf("%.0f B of heap per demoted flow", perFlow)
	if perFlow > 800 {
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
	// Packet fidelity takes no arena and pays what it always has: the
	// Conn, its hot line and the two bound timer callbacks.
	if got := testing.AllocsPerRun(50, cycle); got != 4 {
		t.Errorf("NewConn without an arena: %v allocations, want 4", got)
	}
	cfg.Arena = tcp.NewArena()
	if got := testing.AllocsPerRun(50, cycle); got != 0 {
		t.Errorf("NewConn on a warm arena: %v allocations, want 0", got)
	}
}
