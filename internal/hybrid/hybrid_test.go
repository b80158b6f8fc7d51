package hybrid

// Differential coverage for the scale layer: a hybrid-fidelity fleet must
// be observationally identical to the packet-fidelity fleet on the same
// workload — same completion records at the same nanoseconds, same
// per-flow delivered bytes, stats, and windows — while actually folding
// idle connections into the flow store (peak live well below the fleet
// size). The fuzz target drives random fleets through both fidelities in
// lockstep.

import (
	"runtime"
	"testing"
	"time"

	"tcptrim/internal/httpapp"
	"tcptrim/internal/sim"
	"tcptrim/internal/tcp"
	"tcptrim/internal/topology"
	"tcptrim/internal/workload"
)

func TestParseFidelity(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Fidelity
		ok   bool
	}{
		{"", FidelityPacket, true},
		{"packet", FidelityPacket, true},
		{"hybrid", FidelityHybrid, true},
		{"flow", "", false},
	} {
		got, err := ParseFidelity(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseFidelity(%q) = %v, %v", tc.in, got, err)
		}
	}
}

// trainSpec is one scheduled response in a differential scenario.
type trainSpec struct {
	flow  int
	at    sim.Time
	bytes int
}

// buildFleet wires a star network with n senders × per connections at the
// given fidelity on a fresh sequential scheduler.
func buildFleet(tb testing.TB, n, per int, base tcp.Config, fid Fidelity, epoch time.Duration) (*Fleet, *sim.Scheduler) {
	tb.Helper()
	return buildFleetFrom(tb, sim.NewScheduler(), n, FleetConfig{ConnsPerSender: per, Base: base, Fidelity: fid, Epoch: epoch})
}

// armed returns a scheduler with invariant checks, and so the hybrid
// sweep's full-scan oracle, armed.
func armed() *sim.Scheduler { return sim.NewSchedulerWith(sim.Config{Checks: true}) }

// buildFleetFrom is buildFleet on sched for a configuration that sets
// more than that (policy factories); the network fields are filled in here.
func buildFleetFrom(tb testing.TB, sched *sim.Scheduler, n int, cfg FleetConfig) (*Fleet, *sim.Scheduler) {
	tb.Helper()
	star := topology.NewStar(sched, n, topology.DefaultStarLink(100))
	cfg.Senders, cfg.FrontEnd = star.Senders, star.FrontEnd
	fleet, err := NewFleet(star.Net, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return fleet, sched
}

// runScenario executes the same schedule at both fidelities and returns
// the two fleets after running to horizon.
func runScenario(tb testing.TB, n, per int, base tcp.Config, epoch time.Duration,
	trains []trainSpec, horizon sim.Time) (pkt, hyb *Fleet) {
	tb.Helper()
	return runScenarioFrom(tb, n, sim.NewScheduler, func() FleetConfig {
		return FleetConfig{ConnsPerSender: per, Base: base, Epoch: epoch}
	}, trains, horizon)
}

// runScenarioFrom is runScenario with the fleet configuration built anew
// for each fidelity, so that a stateful policy factory starts over, on
// schedulers newSched builds.
func runScenarioFrom(tb testing.TB, n int, newSched func() *sim.Scheduler, mk func() FleetConfig,
	trains []trainSpec, horizon sim.Time) (pkt, hyb *Fleet) {
	tb.Helper()
	fleets := make([]*Fleet, 2)
	for fi, fid := range []Fidelity{FidelityPacket, FidelityHybrid} {
		cfg := mk()
		cfg.Fidelity = fid
		fleet, sched := buildFleetFrom(tb, newSched(), n, cfg)
		for _, tr := range trains {
			if err := fleet.ScheduleResponse(tr.flow, tr.at, tr.bytes); err != nil {
				tb.Fatal(err)
			}
		}
		if err := fleet.Arm(); err != nil {
			tb.Fatal(err)
		}
		sched.RunUntil(horizon)
		if err := fleet.Err(); err != nil {
			tb.Fatalf("%s fleet error: %v", fid, err)
		}
		fleets[fi] = fleet
	}
	return fleets[0], fleets[1]
}

// compareFleets asserts observational identity between the two fidelities.
func compareFleets(tb testing.TB, pkt, hyb *Fleet) {
	tb.Helper()
	pr, hr := pkt.Collector().Responses(), hyb.Collector().Responses()
	if len(pr) != len(hr) {
		tb.Fatalf("completions: packet %d, hybrid %d", len(pr), len(hr))
	}
	for i := range pr {
		if pr[i] != hr[i] {
			tb.Fatalf("completion %d: packet %+v, hybrid %+v", i, pr[i], hr[i])
		}
	}
	if pkt.Collector().Pending() != hyb.Collector().Pending() {
		tb.Fatalf("pending: packet %d, hybrid %d",
			pkt.Collector().Pending(), hyb.Collector().Pending())
	}
	for i := 0; i < pkt.NumFlows(); i++ {
		if p, h := pkt.DeliveredBytes(i), hyb.DeliveredBytes(i); p != h {
			tb.Fatalf("flow %d delivered: packet %d, hybrid %d", i, p, h)
		}
		if p, h := pkt.Stats(i), hyb.Stats(i); p != h {
			tb.Fatalf("flow %d stats: packet %+v, hybrid %+v", i, p, h)
		}
		if p, h := pkt.Cwnd(i), hyb.Cwnd(i); p != h {
			tb.Fatalf("flow %d cwnd: packet %v, hybrid %v", i, p, h)
		}
	}
	if p, h := pkt.TotalDelivered(), hyb.TotalDelivered(); p != h {
		tb.Fatalf("total delivered: packet %d, hybrid %d", p, h)
	}
	if p, h := pkt.Retransmissions(), hyb.Retransmissions(); p != h {
		tb.Fatalf("retrans: packet %+v, hybrid %+v", p, h)
	}
}

func TestHybridLockstepStaggered(t *testing.T) {
	// 3 hosts × 2 conns; trains staggered so the hybrid fleet demotes
	// most flows most of the time.
	var trains []trainSpec
	for i := 0; i < 6; i++ {
		trains = append(trains, trainSpec{
			flow:  i,
			at:    sim.At(time.Duration(5+40*i)*time.Millisecond + time.Duration(i)),
			bytes: (3 + 2*i) * tcp.DefaultMSS,
		})
		trains = append(trains, trainSpec{
			flow:  i,
			at:    sim.At(time.Duration(305+40*i)*time.Millisecond + time.Duration(i)),
			bytes: 5 * tcp.DefaultMSS,
		})
	}
	pkt, hyb := runScenario(t, 3, 2, tcp.Config{}, 5*time.Millisecond,
		trains, sim.At(2*time.Second))
	compareFleets(t, pkt, hyb)
	if hyb.Live() != 0 {
		t.Errorf("hybrid still has %d live conns after drain", hyb.Live())
	}
	if hyb.PeakLive() == 0 || hyb.PeakLive() >= hyb.NumFlows() {
		t.Errorf("peak live = %d of %d flows; wanted partial materialization",
			hyb.PeakLive(), hyb.NumFlows())
	}
	if pkt.PeakLive() != pkt.NumFlows() {
		t.Errorf("packet peak live = %d, want all %d", pkt.PeakLive(), pkt.NumFlows())
	}
	// The second train on each flow inherited the first train's window
	// through the store: the final window must exceed the initial one.
	if hyb.Cwnd(0) <= tcp.DefaultInitCwnd {
		t.Errorf("flow 0 cwnd %v never grew past initial %v — no inheritance?",
			hyb.Cwnd(0), float64(tcp.DefaultInitCwnd))
	}
}

func TestHybridDemotesBetweenTrains(t *testing.T) {
	trains := []trainSpec{
		{flow: 0, at: sim.At(5 * time.Millisecond), bytes: 4 * tcp.DefaultMSS},
		{flow: 0, at: sim.At(500 * time.Millisecond), bytes: 4 * tcp.DefaultMSS},
	}
	hyb, sched := buildFleet(t, 1, 1, tcp.Config{}, FidelityHybrid, 5*time.Millisecond)
	for _, tr := range trains {
		if err := hyb.ScheduleResponse(tr.flow, tr.at, tr.bytes); err != nil {
			t.Fatal(err)
		}
	}
	if err := hyb.Arm(); err != nil {
		t.Fatal(err)
	}
	sched.RunUntil(sim.At(250 * time.Millisecond))
	if hyb.Live() != 0 {
		t.Fatalf("flow not demoted between trains: %d live", hyb.Live())
	}
	if hyb.Cwnd(0) <= tcp.DefaultInitCwnd {
		t.Errorf("demoted cwnd %v did not retain growth", hyb.Cwnd(0))
	}
	if hyb.DeliveredBytes(0) != 4*int64(tcp.DefaultMSS) {
		t.Errorf("demoted delivered = %d", hyb.DeliveredBytes(0))
	}
	sched.RunUntil(sim.At(2 * time.Second))
	if err := hyb.Err(); err != nil {
		t.Fatal(err)
	}
	if got := hyb.DeliveredBytes(0); got != 8*int64(tcp.DefaultMSS) {
		t.Errorf("final delivered = %d", got)
	}
	if n := len(hyb.Collector().Responses()); n != 2 {
		t.Errorf("completions = %d", n)
	}
}

func TestHybridBackgroundFlowStaysLive(t *testing.T) {
	hyb, sched := buildFleet(t, 2, 1, tcp.Config{}, FidelityHybrid, 5*time.Millisecond)
	if err := hyb.StartBackgroundFlow(0, sim.At(time.Millisecond), 1<<30); err != nil {
		t.Fatal(err)
	}
	if err := hyb.ScheduleResponse(1, sim.At(time.Millisecond), 2*tcp.DefaultMSS); err != nil {
		t.Fatal(err)
	}
	if err := hyb.Arm(); err != nil {
		t.Fatal(err)
	}
	sched.RunUntil(sim.At(time.Second))
	if hyb.Live() != 1 {
		t.Errorf("live = %d, want 1 (only the background flow)", hyb.Live())
	}
	if hyb.DeliveredBytes(0) == 0 {
		t.Error("background flow idle")
	}
}

func TestHybridScheduleConnAt(t *testing.T) {
	hyb, sched := buildFleet(t, 1, 1, tcp.Config{}, FidelityHybrid, 5*time.Millisecond)
	var sawCwnd float64
	var sawAt sim.Time
	err := hyb.ScheduleConnAt(0, sim.At(10*time.Millisecond), func(c *tcp.Conn) {
		sawCwnd = c.Cwnd()
		sawAt = c.Now()
		c.SendTrain(3*tcp.DefaultMSS, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := hyb.Arm(); err != nil {
		t.Fatal(err)
	}
	sched.RunUntil(sim.At(time.Second))
	if sawAt != sim.At(10*time.Millisecond) {
		t.Errorf("callback ran at %v", sawAt)
	}
	if sawCwnd != tcp.DefaultInitCwnd {
		t.Errorf("fresh conn cwnd %v", sawCwnd)
	}
	if hyb.DeliveredBytes(0) != 3*int64(tcp.DefaultMSS) {
		t.Errorf("delivered = %d", hyb.DeliveredBytes(0))
	}
}

func TestHybridScheduleAfterArm(t *testing.T) {
	hyb, _ := buildFleet(t, 1, 1, tcp.Config{}, FidelityHybrid, 0)
	if err := hyb.Arm(); err != nil {
		t.Fatal(err)
	}
	if err := hyb.ScheduleResponse(0, sim.At(time.Millisecond), tcp.DefaultMSS); err == nil {
		t.Error("schedule after Arm succeeded")
	}
	if err := hyb.Arm(); err == nil {
		t.Error("double Arm succeeded")
	}
}

func TestHybridFlowRangeChecks(t *testing.T) {
	for _, fid := range []Fidelity{FidelityPacket, FidelityHybrid} {
		fleet, _ := buildFleet(t, 2, 1, tcp.Config{}, fid, 0)
		if err := fleet.ScheduleResponse(2, sim.At(time.Millisecond), 1); err == nil {
			t.Errorf("%s: out-of-range flow accepted", fid)
		}
		if err := fleet.StartBackgroundFlow(-1, sim.At(time.Millisecond), 1); err == nil {
			t.Errorf("%s: negative flow accepted", fid)
		}
	}
}

// FuzzHybridFleetLockstep drives randomized fleets through both
// fidelities and demands observational identity. Release instants get a
// unique sub-microsecond offset per train so that no release ever
// coincides exactly with another flow's packet events — exact-nanosecond
// ties are the one place event insertion order differs by construction
// between the fidelities (packet fidelity registers releases at setup,
// hybrid fires them from the chained driver event).
//
// One seed in four (the multiples of four) is a wide fleet instead, see
// runWideFleet; the others decode as they always have.
func FuzzHybridFleetLockstep(f *testing.F) {
	for seed := int64(1); seed <= 5; seed++ {
		f.Add(seed)
	}
	f.Add(int64(8))
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := sim.NewRand(seed)
		if seed&3 == 0 {
			if hyb, _ := runWideFleet(t, rng, sim.NewScheduler); hyb.Live() != 0 {
				t.Errorf("seed %d: %d of %d conns still live", seed, hyb.Live(), hyb.NumFlows())
			}
			return
		}
		n := 1 + int(rng.Int63n(4))
		per := 1 + int(rng.Int63n(3))
		epoch := time.Duration(1+rng.Int63n(20)) * time.Millisecond
		var trains []trainSpec
		for flow := 0; flow < n*per; flow++ {
			k := int(rng.Int63n(3))
			for j := 0; j < k; j++ {
				trains = append(trains, trainSpec{
					flow: flow,
					at: sim.At(time.Duration(1+rng.Int63n(400))*time.Millisecond +
						time.Duration(len(trains)+1)),
					bytes: 1 + int(rng.Int63n(20*tcp.DefaultMSS)),
				})
			}
		}
		if len(trains) == 0 {
			trains = append(trains, trainSpec{flow: 0, at: sim.At(time.Millisecond), bytes: 1})
		}
		pkt, hyb := runScenario(t, n, per, tcp.Config{}, epoch,
			trains, sim.At(3*time.Second))
		compareFleets(t, pkt, hyb)
		if hyb.Live() != 0 {
			t.Errorf("seed %d: %d conns still live", seed, hyb.Live())
		}
	})
}

// TestPacketResponsesAsShareServers pins the packet path of
// ScheduleResponseAs to the fleet's own servers: a response with its own
// label and collector joins the fleet's release queue instead of wrapping
// the connection in a new server, so scheduling allocates only the queue's
// amortized growth, and each completion lands under its own label.
func TestPacketResponsesAsShareServers(t *testing.T) {
	const n = 1000
	fleet, sched := buildFleet(t, 2, 1, tcp.Config{}, FidelityPacket, 0)
	coll := &httpapp.Collector{}
	next := 0
	schedule := func() {
		for k := 0; k < n; k++ {
			at := sim.At(time.Duration(1+next) * 100 * time.Microsecond)
			label := "even"
			if next%2 == 1 {
				label = "odd"
			}
			if err := fleet.ScheduleResponseAs(next%2, at, tcp.DefaultMSS, label, coll); err != nil {
				t.Fatal(err)
			}
			next++
		}
	}
	if allocs := testing.AllocsPerRun(1, schedule); allocs > n/100 && !raceEnabled {
		t.Errorf("scheduling %d responses allocates %.0f times, want at most %d", n, allocs, n/100)
	}
	if err := fleet.Arm(); err != nil {
		t.Fatal(err)
	}
	sched.RunUntil(sim.At(time.Second))
	rs := coll.Responses()
	if len(rs) != next || coll.Pending() != 0 {
		t.Fatalf("%d completions, %d pending; want %d and 0", len(rs), coll.Pending(), next)
	}
	for _, r := range rs {
		if want := []string{"even", "odd"}[int(r.Released.Sub(sim.Start)/(100*time.Microsecond)-1)%2]; r.Label != want {
			t.Fatalf("response released at %v recorded under %q, want %q", r.Released, r.Label, want)
		}
	}
	if len(fleet.Collector().Responses()) != 0 {
		t.Error("responses with their own collector reached the fleet's")
	}
}

// TestPacketScheduleTrainsSizesReleaseHeapOnce: at packet fidelity
// ScheduleTrains hands the batch to httpapp.Server.ScheduleTrains, which
// files it in the fleet's release queue as one run: the run's record, one
// run-heap slot, the sink the server interns on first use and the event
// armed for the minimum, whatever the length. A ScheduleResponse per train
// regrows the queue's value heap a dozen times over, and on the
// faulted-star sweeps that was most of what a cell allocated.
func TestPacketScheduleTrainsSizesReleaseHeapOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own account")
	}
	trains := make([]workload.Train, 4096)
	for k := range trains {
		trains[k] = workload.Train{At: sim.At(time.Duration(k+1) * time.Microsecond), Bytes: tcp.DefaultMSS}
	}
	mallocs := func(schedule func(*Fleet) error) uint64 {
		fleet, _ := buildFleet(t, 1, 1, tcp.Config{}, FidelityPacket, 0)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := schedule(fleet); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	batch := mallocs(func(f *Fleet) error { return f.ScheduleTrains(0, trains) })
	loop := mallocs(func(f *Fleet) error {
		for _, tr := range trains {
			if err := f.ScheduleResponse(0, tr.At, tr.Bytes); err != nil {
				return err
			}
		}
		return nil
	})
	t.Logf("%d trains: %d mallocs batched, %d one by one", len(trains), batch, loop)
	if batch > 5 {
		t.Errorf("ScheduleTrains of %d trains allocates %d times, want at most 5 (run, run heap, sink table and map, armed event)", len(trains), batch)
	}
}

// TestPacketScheduleTrainsBytesIndependentOfLength: a fleet's servers
// share one release queue, and each server's ScheduleTrains files its
// schedule there as one run that keeps the caller's trains, so S servers
// × n trains allocate the same bytes whatever n is.
func TestPacketScheduleTrainsBytesIndependentOfLength(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own account")
	}
	const servers, slack = 3, 64
	schedule := func(n int) (mallocs, bytes uint64) {
		trains := make([]workload.Train, n)
		for k := range trains {
			trains[k] = workload.Train{At: sim.At(time.Duration(k+1) * time.Microsecond), Bytes: tcp.DefaultMSS}
		}
		fleet, _ := buildFleet(t, servers, 1, tcp.Config{}, FidelityPacket, 0)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < servers; i++ {
			if err := fleet.ScheduleTrains(i, trains); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
	}
	shortMallocs, short := schedule(64)
	longMallocs, long := schedule(4096)
	t.Logf("%d servers: %d mallocs and %d B for 64 trains each, %d and %d B for 4096", servers, shortMallocs, short, longMallocs, long)
	if long > short+slack || longMallocs > shortMallocs {
		t.Errorf("4096 trains per server allocate %d times, %d B; 64 allocate %d times, %d B: want the same within %d B",
			longMallocs, long, shortMallocs, short, slack)
	}
}

// TestPacketFleetRecyclesConnections: a packet-fidelity fleet built with
// Recycle set to one cut mid-run builds its connections in the old
// fleet's objects, runs as a fresh fleet does, and keeps nothing of the
// old fleet reachable (hybrid.Fleet keeps its configuration, so the
// pass-through must not); a hybrid-fidelity fleet ignores Recycle.
func TestPacketFleetRecyclesConnections(t *testing.T) {
	var trains []trainSpec
	for i := 0; i < 4; i++ {
		for k := 0; k < 5; k++ {
			trains = append(trains, trainSpec{flow: i,
				at: sim.At(time.Duration(1+k)*time.Millisecond + time.Duration(i)), bytes: (20 + 7*k) * tcp.DefaultMSS})
		}
	}
	run := func(recycle *Fleet, fid Fidelity, horizon sim.Time) *Fleet {
		fleet, sched := buildFleetFrom(t, sim.NewScheduler(), 4, FleetConfig{Fidelity: fid, Recycle: recycle,
			Base: tcp.Config{MinRTO: 5 * time.Millisecond, SACK: true}})
		for _, tr := range trains {
			if err := fleet.ScheduleResponse(tr.flow, tr.at, tr.bytes); err != nil {
				t.Fatal(err)
			}
		}
		if err := fleet.Arm(); err != nil {
			t.Fatal(err)
		}
		sched.RunUntil(horizon)
		return fleet
	}
	want := run(nil, FidelityPacket, sim.At(time.Second))

	collected := make(chan struct{})
	var got *Fleet
	func() {
		old := run(nil, FidelityPacket, sim.At(2*time.Millisecond))
		if old.Collector().Pending() == 0 {
			t.Fatal("the old fleet was not cut mid-run")
		}
		runtime.SetFinalizer(old.Collector(), func(*httpapp.Collector) { close(collected) })
		conns := append([]*tcp.Conn(nil), old.pkt.Conns...)
		got = run(old, FidelityPacket, sim.At(time.Second))
		for i, c := range got.pkt.Conns {
			if c != conns[i] {
				t.Fatalf("connection %d was not built in the old fleet's object", i)
			}
		}
	}()
	compareFleets(t, want, got)
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-collected:
			hyb := run(got, FidelityHybrid, sim.At(time.Second))
			if hyb.pkt != nil || hyb.cfg.Recycle != nil {
				t.Error("a hybrid-fidelity fleet took the recycled fleet")
			}
			compareFleets(t, want, hyb)
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("the recycled fleet is still reachable")
}
