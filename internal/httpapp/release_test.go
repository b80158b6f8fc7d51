package httpapp

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"tcptrim/internal/sim"
	"tcptrim/internal/tcp"
	"tcptrim/internal/workload"
)

// atRelease is the release path the queue replaces: one At closure per
// response, recording into coll under label when the train completes.
func atRelease(t *testing.T, srv *Server, at sim.Time, bytes int, label string, coll *Collector) {
	t.Helper()
	coll.NoteScheduled()
	if _, err := srv.sched.At(at, func() {
		srv.conn.SendTrain(bytes, func(res tcp.TrainResult) { coll.Record(label, bytes, res) })
	}); err != nil {
		t.Fatal(err)
	}
}

// TestReleaseSinksFollowCompletionOrder mixes two labels on one server and a
// zero-byte response between two pending trains, and compares every
// completion, to the nanosecond, with the same schedule released through
// one At closure per response.
func TestReleaseSinksFollowCompletionOrder(t *testing.T) {
	type resp struct {
		server int
		at     time.Duration
		bytes  int
		other  bool // reported under "other" to a second collector
	}
	schedule := []resp{
		{0, time.Millisecond, 20 * tcp.DefaultMSS, false},
		{0, time.Millisecond + time.Microsecond, 0, true},
		{0, time.Millisecond + 2*time.Microsecond, 5 * tcp.DefaultMSS, true},
		{0, time.Millisecond + 3*time.Microsecond, 3*tcp.DefaultMSS + 7, false},
		{1, time.Millisecond, 2 * tcp.DefaultMSS, true},
		{1, time.Millisecond, 0, false}, // same instant as the one before
		{2, 2 * time.Millisecond, 9 * tcp.DefaultMSS, false},
		{0, 50 * time.Millisecond, tcp.DefaultMSS, true},
	}
	run := func(viaQueue bool) (own, other []Response, fired uint64) {
		_, fleet, sched := newStarFleet(t, 3, tcp.Config{})
		coll := &Collector{}
		if err := fleet.Servers[2].StartBackgroundFlow(sim.At(time.Millisecond), 40*tcp.DefaultMSS); err != nil {
			t.Fatal(err)
		}
		for _, r := range schedule {
			srv, at := fleet.Servers[r.server], sim.At(r.at)
			var err error
			switch {
			case !viaQueue && r.other:
				atRelease(t, srv, at, r.bytes, "other", coll)
			case !viaQueue:
				atRelease(t, srv, at, r.bytes, srv.Label(), fleet.Collector)
			case r.other:
				err = srv.ScheduleResponseAs(at, r.bytes, "other", coll)
			default:
				err = srv.ScheduleResponse(at, r.bytes)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		sched.RunUntil(sim.At(time.Second))
		if fleet.Collector.Pending() != 0 || coll.Pending() != 0 {
			t.Fatalf("pending: %d and %d", fleet.Collector.Pending(), coll.Pending())
		}
		return fleet.Collector.Responses(), coll.Responses(), sched.Fired()
	}
	wantOwn, wantOther, _ := run(false)
	gotOwn, gotOther, _ := run(true)
	for _, c := range []struct {
		name      string
		got, want []Response
	}{{"own", gotOwn, wantOwn}, {"other", gotOther, wantOther}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("%s: %d completions, want %d", c.name, len(c.got), len(c.want))
		}
		for i := range c.got {
			if c.got[i] != c.want[i] {
				t.Errorf("%s completion %d: %+v, want %+v", c.name, i, c.got[i], c.want[i])
			}
		}
	}
	if len(gotOwn) != 4 || len(gotOther) != 4 {
		t.Errorf("completions: %d own, %d other; want 4 and 4", len(gotOwn), len(gotOther))
	}
}

// TestScheduleTrainsMatchesOneAtEach hands two servers their schedules as
// runs — one with a descent, a zero-byte train and a second label's
// responses interleaved, so a run-length in-flight entry is split — and
// compares every completion, to the nanosecond, with one At closure per
// train. A train due in the past stops a third schedule with the error a
// ScheduleResponse per train returns, the trains before it scheduled.
func TestScheduleTrainsMatchesOneAtEach(t *testing.T) {
	us := func(n int) sim.Time { return sim.At(time.Millisecond + time.Duration(n)*time.Microsecond) }
	runs := [][]workload.Train{
		{{At: us(0), Bytes: 8 * tcp.DefaultMSS}, {At: us(1), Bytes: 3 * tcp.DefaultMSS}, {At: us(1), Bytes: 0},
			{At: us(30), Bytes: 5 * tcp.DefaultMSS}, {At: us(4), Bytes: tcp.DefaultMSS}, {At: us(900), Bytes: 2*tcp.DefaultMSS + 1}},
		{{At: us(2), Bytes: 4 * tcp.DefaultMSS}, {At: us(2), Bytes: 4 * tcp.DefaultMSS}, {At: us(40), Bytes: 6 * tcp.DefaultMSS}},
	}
	others := []struct {
		at    sim.Time
		bytes int
	}{{us(1), 2 * tcp.DefaultMSS}, {us(5), tcp.DefaultMSS}, {us(31), 0}}
	run := func(viaQueue bool) (own, other []Response) {
		_, fleet, sched := newStarFleet(t, 2, tcp.Config{})
		coll := &Collector{}
		for i, trains := range runs {
			srv := fleet.Servers[i]
			if !viaQueue {
				for _, tr := range trains {
					atRelease(t, srv, tr.At, tr.Bytes, srv.Label(), fleet.Collector)
				}
			} else if err := srv.ScheduleTrains(trains); err != nil {
				t.Fatal(err)
			}
		}
		for _, o := range others {
			srv := fleet.Servers[0]
			if !viaQueue {
				atRelease(t, srv, o.at, o.bytes, "other", coll)
			} else if err := srv.ScheduleResponseAs(o.at, o.bytes, "other", coll); err != nil {
				t.Fatal(err)
			}
		}
		sched.RunUntil(sim.At(time.Second))
		if fleet.Collector.Pending() != 0 || coll.Pending() != 0 {
			t.Fatalf("pending: %d and %d", fleet.Collector.Pending(), coll.Pending())
		}
		return fleet.Collector.Responses(), coll.Responses()
	}
	wantOwn, wantOther := run(false)
	gotOwn, gotOther := run(true)
	for _, c := range []struct {
		name      string
		got, want []Response
	}{{"own", gotOwn, wantOwn}, {"other", gotOther, wantOther}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("%s: %d completions, want %d", c.name, len(c.got), len(c.want))
		}
		for i := range c.got {
			if c.got[i] != c.want[i] {
				t.Errorf("%s completion %d: %+v, want %+v", c.name, i, c.got[i], c.want[i])
			}
		}
	}
	if len(gotOwn) != 9 || len(gotOther) != 3 {
		t.Errorf("completions: %d own, %d other; want 9 and 3", len(gotOwn), len(gotOther))
	}

	_, fleet, sched := newStarFleet(t, 1, tcp.Config{})
	sched.RunUntil(us(10))
	past := []workload.Train{{At: us(20), Bytes: tcp.DefaultMSS}, {At: us(30), Bytes: tcp.DefaultMSS}, {At: us(9), Bytes: tcp.DefaultMSS}, {At: us(40), Bytes: tcp.DefaultMSS}}
	err := fleet.Servers[0].ScheduleTrains(past)
	if want := fmt.Sprintf("schedule response at %v: %v", us(9), sim.ErrPastEvent); !errors.Is(err, sim.ErrPastEvent) || err.Error() != want {
		t.Fatalf("past train: %v, want %q", err, want)
	}
	if p := fleet.Collector.Pending(); p != 2 {
		t.Fatalf("%d responses pending after the past train, want the 2 before it", p)
	}
	sched.RunUntil(sim.At(time.Second))
	if n := fleet.Collector.Count(); n != 2 || fleet.Collector.Pending() != 0 {
		t.Fatalf("%d completions, %d pending; want 2 and 0", n, fleet.Collector.Pending())
	}
}

// TestFleetReleasesAllocateConstant pins the cost of a released response on
// a warm 3-server fleet: scheduling and completing 250 responses per server
// allocates no more than 50 do. Each round has two labels on server 0 and a
// zero-byte response between pending trains there.
func TestFleetReleasesAllocateConstant(t *testing.T) {
	_, fleet, sched := newStarFleet(t, 3, tcp.Config{})
	other := &Collector{}
	round := func(n int) {
		base := sched.Now()
		for k := 0; k < n; k++ {
			at := base.Add(time.Duration(1+k) * 50 * time.Microsecond)
			for i, srv := range fleet.Servers {
				var err error
				switch {
				case i == 0 && k%5 == 2:
					err = srv.ScheduleResponseAs(at, 0, "zero", other)
				case i == 0 && k%2 == 1:
					err = srv.ScheduleResponseAs(at, 2*tcp.DefaultMSS, "other", other)
				default:
					err = srv.ScheduleResponse(at, 2*tcp.DefaultMSS)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
		}
		sched.Run()
		if fleet.Collector.Pending() != 0 || other.Pending() != 0 {
			t.Fatalf("pending: %d and %d", fleet.Collector.Pending(), other.Pending())
		}
		// Keep the recorded responses' storage: what is measured is the
		// release path, not the collector's history growing.
		fleet.Collector.responses = fleet.Collector.responses[:0]
		other.responses = other.responses[:0]
	}
	round(250)
	small := testing.AllocsPerRun(3, func() { round(50) })
	large := testing.AllocsPerRun(3, func() { round(250) })
	t.Logf("allocs per round: %.0f for 50 responses per server, %.0f for 250", small, large)
	if large > small {
		t.Errorf("a round of 250 responses per server allocates %.0f, 50 allocate %.0f: the release path allocates per response", large, small)
	}
}
