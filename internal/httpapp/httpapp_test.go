package httpapp

import (
	"math/rand"
	"testing"
	"time"

	"tcptrim/internal/sim"
	"tcptrim/internal/tcp"
	"tcptrim/internal/topology"
	"tcptrim/internal/workload"
)

func newStarFleet(t *testing.T, n int, base tcp.Config) (*topology.Star, *Fleet, *sim.Scheduler) {
	t.Helper()
	sched := sim.NewScheduler()
	star := topology.NewStar(sched, n, topology.DefaultStarLink(100))
	fleet, err := NewFleet(star.Net, FleetConfig{
		Senders:  star.Senders,
		FrontEnd: star.FrontEnd,
		Base:     base,
	})
	if err != nil {
		t.Fatal(err)
	}
	return star, fleet, sched
}

func TestFleetBuildsOneConnPerSender(t *testing.T) {
	_, fleet, _ := newStarFleet(t, 5, tcp.Config{})
	if len(fleet.Conns) != 5 || len(fleet.Servers) != 5 {
		t.Fatalf("fleet size: %d conns, %d servers", len(fleet.Conns), len(fleet.Servers))
	}
	if fleet.Servers[0].Label() != "server1" || fleet.Servers[4].Label() != "server5" {
		t.Errorf("labels: %q .. %q", fleet.Servers[0].Label(), fleet.Servers[4].Label())
	}
}

func TestScheduledResponsesComplete(t *testing.T) {
	_, fleet, sched := newStarFleet(t, 3, tcp.Config{})
	for i, srv := range fleet.Servers {
		for k := 0; k < 4; k++ {
			at := sim.At(time.Duration(10+i+5*k) * time.Millisecond)
			if err := srv.ScheduleResponse(at, 8*tcp.DefaultMSS); err != nil {
				t.Fatal(err)
			}
		}
	}
	if fleet.Collector.Pending() != 12 {
		t.Fatalf("pending = %d", fleet.Collector.Pending())
	}
	sched.RunUntil(sim.At(time.Second))
	if fleet.Collector.Pending() != 0 {
		t.Fatalf("still pending: %d", fleet.Collector.Pending())
	}
	rs := fleet.Collector.Responses()
	if len(rs) != 12 {
		t.Fatalf("responses = %d", len(rs))
	}
	for _, r := range rs {
		if ct := r.CompletionTime(); ct <= 0 || ct > 100*time.Millisecond {
			t.Errorf("completion time %v for %s", ct, r.Label)
		}
	}
}

func TestCollectorFilters(t *testing.T) {
	var c Collector
	c.Add("a", 1000, tcp.TrainResult{Released: 0, Completed: sim.At(time.Millisecond)})
	c.Add("b", 200_000, tcp.TrainResult{Released: 0, Completed: sim.At(2 * time.Millisecond)})
	c.Add("a", 70_000, tcp.TrainResult{Released: 0, Completed: sim.At(3 * time.Millisecond)})

	if got := c.CompletionTimes(nil).Count(); got != 3 {
		t.Errorf("unfiltered = %d", got)
	}
	if got := c.CompletionTimes(ByLabel("a")).Count(); got != 2 {
		t.Errorf("label a = %d", got)
	}
	if got := c.CompletionTimes(BySizeRange(64<<10, 256<<10)).Count(); got != 2 {
		t.Errorf("size range = %d", got)
	}
	mean := c.CompletionTimes(ByLabel("a")).Mean()
	if mean != 0.002 {
		t.Errorf("mean = %v, want 2ms", mean)
	}
}

func TestScheduleTrainsFromWorkload(t *testing.T) {
	_, fleet, sched := newStarFleet(t, 1, tcp.Config{})
	rng := rand.New(rand.NewSource(9))
	trains := workload.ScheduleCount(rng, sim.At(time.Millisecond), 50,
		workload.UniformSize{Min: 2048, Max: 10240},
		workload.ExponentialGap{Mean: time.Millisecond})
	if err := fleet.Servers[0].ScheduleTrains(trains); err != nil {
		t.Fatal(err)
	}
	sched.RunUntil(sim.At(time.Second))
	if got := len(fleet.Collector.Responses()); got != 50 {
		t.Fatalf("responses = %d", got)
	}
}

func TestBackgroundFlowDelivers(t *testing.T) {
	_, fleet, sched := newStarFleet(t, 2, tcp.Config{})
	if err := fleet.Servers[0].StartBackgroundFlow(sim.At(time.Millisecond), 1<<30); err != nil {
		t.Fatal(err)
	}
	sched.RunUntil(sim.At(100 * time.Millisecond))
	if fleet.Conns[0].DeliveredBytes() == 0 {
		t.Error("background flow delivered nothing")
	}
	if len(fleet.Collector.Responses()) != 0 {
		t.Error("background flow must not report to the collector")
	}
}

func TestFleetAggregates(t *testing.T) {
	_, fleet, sched := newStarFleet(t, 3, tcp.Config{})
	for _, srv := range fleet.Servers {
		if err := srv.ScheduleResponse(sim.At(time.Millisecond), 10*tcp.DefaultMSS); err != nil {
			t.Fatal(err)
		}
	}
	sched.RunUntil(sim.At(time.Second))
	if got := fleet.TotalDelivered(); got != 3*10*tcp.DefaultMSS {
		t.Errorf("TotalDelivered = %d", got)
	}
	if fleet.TotalTimeouts() != 0 {
		t.Errorf("TotalTimeouts = %d", fleet.TotalTimeouts())
	}
}

func TestFleetRequiresFrontEnd(t *testing.T) {
	sched := sim.NewScheduler()
	star := topology.NewStar(sched, 1, topology.DefaultStarLink(100))
	if _, err := NewFleet(star.Net, FleetConfig{Senders: star.Senders}); err == nil {
		t.Error("missing front end must error")
	}
}

// TestTreeTrafficFiresFromLanes pins what the scheduler's FIFO lanes are
// for: on Fig. 8-shaped traffic — a two-level tree, many servers
// answering one front-end — per-packet serialization and propagation are
// nearly every event, and they must fire from the lanes. A silent fall
// back to the wheel (an arming site reverted to After, an admission rule
// that starves a delay) would only show as a slower benchmark otherwise.
// So would a fall back to a slow lookup: the lane and route lookups the
// per-event path leaves are pinned as exact counts.
func TestTreeTrafficFiresFromLanes(t *testing.T) {
	sched := sim.NewScheduler()
	tree := topology.NewTwoLevelTree(sched, topology.TwoLevelTreeConfig{ToRs: 3, ServersPerToR: 8})
	fleet, err := NewFleet(tree.Net, FleetConfig{Senders: tree.AllServers(), FrontEnd: tree.FrontEnd})
	if err != nil {
		t.Fatal(err)
	}
	for i, srv := range fleet.Servers {
		for k := 0; k < 6; k++ {
			at := sim.At(time.Duration(1+i+7*k) * time.Millisecond)
			// Whole segments plus a partial one: its serialization time is a
			// one-off delay that must not cost the recurring ones their lanes.
			if err := srv.ScheduleResponse(at, (30+11*i+k)*tcp.DefaultMSS+100+37*i); err != nil {
				t.Fatal(err)
			}
		}
	}
	sched.RunUntil(sim.At(2 * time.Second))
	if fleet.Collector.Pending() != 0 {
		t.Fatalf("still pending: %d", fleet.Collector.Pending())
	}
	st := sched.Stats()
	t.Logf("fired %d: %+v, network %+v", sched.Fired(), st, tree.Net.Stats())
	if st.FiredLane*100 < sched.Fired()*99 {
		t.Errorf("%d of %d events (%.2f%%) fired from lanes, want at least 99%%: %+v",
			st.FiredLane, sched.Fired(), 100*float64(st.FiredLane)/float64(sched.Fired()), st)
	}
	if st.Lanes < 6 {
		t.Errorf("stats %+v: want the tree's six link delays in lanes", st)
	}
	// The pipes reach their lanes through handles: a handle misses only
	// while its delay has no lane (one-off partial-segment times among
	// them) and once after each admission. Each flow resolves its data and
	// its ACK path once, three hops each, and no packet is forwarded by
	// lookup.
	if st.LaneHandleMisses != 1215 || st.LaneHandleMisses*100 >= sched.Fired() {
		t.Errorf("%d AfterFIFO lane lookups in %d events, want 1215 (%+v)", st.LaneHandleMisses, sched.Fired(), st)
	}
	if lookups, want := tree.Net.Stats().RouteLookups, 2*3*len(fleet.Servers); lookups != want {
		t.Errorf("%d forwarding-state lookups in %d events, want %d: three hops for each of %d flows' two paths",
			lookups, sched.Fired(), want, len(fleet.Servers))
	}
}
