package netsim

// Differential proof that a network's run is a function of its inputs
// alone: the same star topology, traffic program, and fault schedule run
// once on its own as the reference, then as a batch of shards —
// independent copies, each with its own scheduler, as a sweep's trials
// are — advanced side by side in lockstep slices on one goroutine, or each
// on a goroutine of its own. Every copy's observables — delivery traces
// with exact arrival instants, per-pipe fault counters, queue drops, pool
// ledgers, fired event counts — must match the reference bit for bit.
// Faults cover GE loss, reordering, duplication and jitter on the
// uplinks, and uniform loss plus link flaps on the bottleneck.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"tcptrim/internal/sim"
)

const (
	ssSenders = 6
	ssHorizon = 200 * time.Millisecond
	ssSlice   = 50 * time.Microsecond // lockstep slice of an inline batch
)

// ssEntry is one observed delivery: which packet, where, when.
type ssEntry struct {
	flow FlowID
	id   uint64
	at   sim.Time
}

// ssEnv is one run of the star program.
type ssEnv struct {
	sched    *sim.Scheduler
	net      *Network
	senders  []*Host
	sw       *Switch
	fe       *Host
	up, down []*Pipe // sender→switch, switch→sender
	swFe     *Pipe
	feSw     *Pipe

	feTrace   []ssEntry
	echoTrace []ssEntry
	echoed    uint64
}

// buildStar wires the topology, traffic program, and fault schedule on
// sched, a scheduler of its own.
func buildStar(t *testing.T, sched *sim.Scheduler) *ssEnv {
	t.Helper()
	e := &ssEnv{sched: sched}
	e.net = NewNetwork(e.sched)
	e.sw = e.net.AddSwitch("sw")
	e.fe = e.net.AddHost("fe")
	for i := 0; i < ssSenders; i++ {
		e.senders = append(e.senders, e.net.AddHost(fmt.Sprintf("s%d", i)))
	}
	for _, s := range e.senders {
		up, down := e.net.Connect(s, e.sw, LinkConfig{
			Rate: Gbps, Delay: 20 * time.Microsecond,
			Queue: QueueConfig{CapPackets: 64},
		})
		e.up = append(e.up, up)
		e.down = append(e.down, down)
	}
	e.swFe, e.feSw = e.net.Connect(e.sw, e.fe, LinkConfig{
		Rate: Gbps, Delay: 10 * time.Microsecond,
		Queue: QueueConfig{CapPackets: 32},
	})

	// Frontend: record every arrival; echo every third packet per flow
	// back to its sender so the reverse direction carries traffic too.
	e.fe.SetHandler(func(p *Packet) {
		e.feTrace = append(e.feTrace, ssEntry{p.Flow, p.ID, e.sched.Now()})
		if p.ID%3 == 0 {
			e.echoed++
			echo := e.fe.AllocPacket()
			echo.ID = 1_000_000 + e.echoed
			echo.Flow = p.Flow
			echo.Src, echo.Dst = e.fe.ID(), NodeID(p.Src)
			echo.Size = 64
			echo.IsAck = true
			e.fe.Send(echo)
		}
	})
	for _, s := range e.senders {
		s.SetHandler(func(p *Packet) {
			e.echoTrace = append(e.echoTrace, ssEntry{p.Flow, p.ID, e.sched.Now()})
		})
	}

	// Traffic: each sender emits bursts of ten.
	for i, s := range e.senders {
		for burst := 0; burst < 8; burst++ {
			at := sim.At(time.Duration(1+burst*17+i) * time.Millisecond)
			if _, err := e.sched.At(at, func() {
				for k := 0; k < 10; k++ {
					pkt := s.AllocPacket()
					pkt.ID = uint64(i)*10_000 + uint64(burst)*100 + uint64(k)
					pkt.Flow = FlowID(i)
					pkt.Src, pkt.Dst = s.ID(), e.fe.ID()
					pkt.Size = 1500
					s.Send(pkt)
				}
			}); err != nil {
				t.Fatalf("schedule burst: %v", err)
			}
		}
	}

	// Faults: source-side injectors on the uplinks, uniform loss plus a
	// flap schedule on the bottleneck.
	e.up[0].InjectGilbertElliott(GEConfig{PGoodBad: 0.05, PBadGood: 0.3, LossBad: 0.5},
		rand.New(rand.NewSource(101)))
	e.up[1].InjectDuplicate(0.08, rand.New(rand.NewSource(202)))
	e.up[3].InjectReorder(0.1, 40*time.Microsecond, rand.New(rand.NewSource(303)))
	e.up[4].InjectJitter(15*time.Microsecond, rand.New(rand.NewSource(404)))
	e.swFe.InjectLoss(0.02, rand.New(rand.NewSource(505)))
	if err := e.swFe.ScheduleFlaps(FlapConfig{
		FirstDownAt: sim.At(40 * time.Millisecond),
		DownFor:     2 * time.Millisecond,
		UpFor:       30 * time.Millisecond,
		Count:       3,
	}); err != nil {
		t.Fatalf("ScheduleFlaps: %v", err)
	}
	return e
}

func (e *ssEnv) run() { e.sched.RunUntil(sim.At(ssHorizon)) }

// runBatch runs n copies of the star program: in lockstep slices on this
// goroutine, or each on its own goroutine when parallel.
func runBatch(t *testing.T, n int, parallel bool) []*ssEnv {
	t.Helper()
	batch := make([]*ssEnv, n)
	for i := range batch {
		batch[i] = buildStar(t, sim.NewScheduler())
	}
	if !parallel {
		for at := sim.At(ssSlice); at <= sim.At(ssHorizon); at = at.Add(ssSlice) {
			for _, e := range batch {
				e.sched.RunUntil(at)
			}
		}
		return batch
	}
	var wg sync.WaitGroup
	for _, e := range batch {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.run()
		}()
	}
	wg.Wait()
	return batch
}

// diff compares every observable of two runs.
func (e *ssEnv) diff(o *ssEnv) string {
	if len(e.feTrace) != len(o.feTrace) {
		return fmt.Sprintf("frontend trace length %d != %d", len(e.feTrace), len(o.feTrace))
	}
	for i := range e.feTrace {
		if e.feTrace[i] != o.feTrace[i] {
			return fmt.Sprintf("frontend trace[%d] %+v != %+v", i, e.feTrace[i], o.feTrace[i])
		}
	}
	if len(e.echoTrace) != len(o.echoTrace) {
		return fmt.Sprintf("echo trace length %d != %d", len(e.echoTrace), len(o.echoTrace))
	}
	for i := range e.echoTrace {
		if e.echoTrace[i] != o.echoTrace[i] {
			return fmt.Sprintf("echo trace[%d] %+v != %+v", i, e.echoTrace[i], o.echoTrace[i])
		}
	}
	pipes := func(env *ssEnv) []*Pipe {
		ps := append([]*Pipe{}, env.up...)
		ps = append(ps, env.down...)
		return append(ps, env.swFe, env.feSw)
	}
	ep, op := pipes(e), pipes(o)
	for i := range ep {
		if ep[i].Stats() != op[i].Stats() {
			return fmt.Sprintf("pipe %s->%s stats %+v != %+v",
				ep[i].from.Name(), ep[i].to.Name(), ep[i].Stats(), op[i].Stats())
		}
		if ep[i].Queue().Stats() != op[i].Queue().Stats() {
			return fmt.Sprintf("pipe %s->%s queue stats %+v != %+v",
				ep[i].from.Name(), ep[i].to.Name(), ep[i].Queue().Stats(), op[i].Queue().Stats())
		}
	}
	if e.net.Stats() != o.net.Stats() {
		return fmt.Sprintf("network stats %+v != %+v", e.net.Stats(), o.net.Stats())
	}
	if e.net.LivePackets() != o.net.LivePackets() {
		return fmt.Sprintf("live packets %d != %d", e.net.LivePackets(), o.net.LivePackets())
	}
	if ps, qs := e.net.PoolStats(), o.net.PoolStats(); ps.Releases != qs.Releases {
		return fmt.Sprintf("pool releases %d != %d", ps.Releases, qs.Releases)
	}
	if e.sched.Fired() != o.sched.Fired() {
		return fmt.Sprintf("fired %d != %d", e.sched.Fired(), o.sched.Fired())
	}
	return ""
}

// TestNetworkShardDifferential sweeps batch sizes and execution modes
// against the lone reference.
func TestNetworkShardDifferential(t *testing.T) {
	ref := buildStar(t, sim.NewScheduler())
	ref.run()
	if len(ref.feTrace) == 0 {
		t.Fatal("reference run delivered nothing; traffic program is broken")
	}
	plans := []struct {
		name   string
		shards int
	}{{"1shard", 1}, {"2shards", 2}, {"3shards", 3}, {"7shards", 7}}
	for _, plan := range plans {
		for _, parallel := range []bool{false, true} {
			name := plan.name
			if parallel {
				name += "-parallel"
			}
			t.Run(name, func(t *testing.T) {
				for i, e := range runBatch(t, plan.shards, parallel) {
					if d := ref.diff(e); d != "" {
						t.Fatalf("shard %d of %d diverged from the lone reference: %s", i, plan.shards, d)
					}
				}
			})
		}
	}
}

// TestNetworkShardInvariants runs a 3-shard batch on three goroutines with
// invariant checks and each copy's periodic checker on, exercising packet
// conservation (the scheduler walk over pending arrivals, held packets,
// per-network pools) on networks running concurrently.
func TestNetworkShardInvariants(t *testing.T) {
	batch := make([]*ssEnv, 3)
	var wg sync.WaitGroup
	for i := range batch {
		e := buildStar(t, armed())
		e.net.ScheduleInvariantChecks(time.Millisecond)
		batch[i] = e
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.run()
		}()
	}
	wg.Wait()
	for i, e := range batch {
		e.net.CheckInvariants()
		if live := e.net.LivePackets(); live != 0 {
			t.Fatalf("shard %d: %d pooled packets leaked", i, live)
		}
	}
}
