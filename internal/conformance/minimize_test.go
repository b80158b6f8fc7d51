package conformance

import (
	"testing"
	"time"

	"tcptrim/internal/netsim"
	"tcptrim/internal/sim"
)

// tamperedFails runs the scenario with an oracle whose alpha is
// perturbed — a stand-in for a real policy bug, so the minimizer has a
// genuine failure to shrink.
func tamperedFails(sc Scenario) bool {
	sh := NewShadow(sc.Cfg)
	sh.oracle.cfg.Alpha += 0.01
	res, err := runScenarioWith(sc, sim.NewScheduler(), sh)
	return err == nil && res.Total > 0
}

func TestMinimizeShrinksTamperedFailure(t *testing.T) {
	// Find a seed whose scenario diverges under the tampered oracle.
	var sc Scenario
	found := false
	for seed := int64(1); seed <= 50; seed++ {
		sc = GenScenario(seed)
		if tamperedFails(sc) {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no tampered-failing scenario in 50 seeds")
	}
	min := Minimize(sc, tamperedFails)
	if !tamperedFails(min) {
		t.Fatal("minimized scenario no longer fails")
	}
	if len(min.Trains) > len(sc.Trains) {
		t.Errorf("minimizer grew the schedule: %d → %d trains", len(sc.Trains), len(min.Trains))
	}
	// The alpha tamper needs only RTT samples: a genuinely minimal
	// reproduction is a handful of trains with no faults.
	if len(min.Trains) > 3 {
		t.Errorf("minimized to %d trains, want ≤ 3", len(min.Trains))
	}
	if min.Loss.Enabled() || min.ReorderProb > 0 || min.DupProb > 0 || min.Jitter > 0 || len(min.CrossTrains) > 0 {
		t.Errorf("minimizer left faults armed: %s", min.Describe())
	}
	t.Logf("minimized %q → %q", sc.Describe(), min.Describe())
}

func TestMinimizeReturnsPassingScenarioUntouched(t *testing.T) {
	sc := GenScenario(1)
	min := Minimize(sc, func(Scenario) bool { return false })
	if min.Horizon != sc.Horizon || len(min.Trains) != len(sc.Trains) {
		t.Error("non-failing scenario was modified")
	}
}

func TestScenarioDeterminism(t *testing.T) {
	// Same seed → byte-identical scenario and identical run counters;
	// this is what makes a failing seed replayable and shrinkable. The
	// replay runs on the scheduler it is handed, here one without lanes,
	// so the counters also hold whichever container fires the pipes.
	wheelCfg := sim.NewScheduler().Config()
	wheelCfg.NoLanes = true
	lanes, wheel := sim.NewScheduler(), sim.NewSchedulerWith(wheelCfg)
	for seed := int64(1); seed <= 5; seed++ {
		a, b := GenScenario(seed), GenScenario(seed)
		if a.Describe() != b.Describe() || a.Horizon != b.Horizon || len(a.Trains) != len(b.Trains) {
			t.Fatalf("seed %d: scenario generation not deterministic", seed)
		}
		ra, err := RunScenario(a, lanes)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := RunScenario(b, wheel)
		if err != nil {
			t.Fatal(err)
		}
		if ra.Hooks != rb.Hooks || ra.ProbeRounds != rb.ProbeRounds || ra.Timeouts != rb.Timeouts {
			t.Fatalf("seed %d: replay differs: %+v vs %+v", seed, ra, rb)
		}
		if l, w := lanes.Stats().FiredLane, wheel.Stats().FiredLane; l == 0 || w != 0 {
			t.Fatalf("seed %d: %d lane events with lanes, %d without", seed, l, w)
		}
	}
}

// FuzzScenario decodes a bounded scenario directly from fuzz bytes —
// independent of GenScenario's distributions — and requires a clean
// lockstep run.
func FuzzScenario(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(3), uint8(0), uint8(2), false, false)
	f.Add(int64(7), uint8(12), uint8(40), uint8(9), uint8(0), true, true)
	f.Fuzz(func(t *testing.T, seed int64, trains, queue, faults, knobs uint8, sack, dack bool) {
		sc := GenScenario(seed) // base draws (rates, fault params)
		sc.Queue = 4 + int(queue)
		sc.SACK = sack
		if dack {
			sc.DelayedAck = 200 * time.Microsecond
		} else {
			sc.DelayedAck = 0
		}
		// Rebuild the train schedule from the byte arguments.
		n := int(trains)%16 + 1
		sc.Trains = sc.Trains[:0]
		start := time.Duration(0)
		for i := 0; i < n; i++ {
			segs := (i*7+int(faults))%40 + 1
			sc.Trains = append(sc.Trains, Train{Bytes: segs * 1460, Start: start})
			if i%2 == 0 {
				start += time.Duration(int(faults)*13%400) * time.Microsecond
			} else {
				start += time.Duration(500+int(knobs)*37) * time.Microsecond
			}
		}
		if faults%2 == 0 {
			sc.Loss = netsimGE(faults)
		}
		sc.Cfg.ProbeDeadlineFactor = []float64{0, 1, 2, 3}[knobs%4]
		sc.Cfg.DisableProbing = knobs%8 == 5
		sc.Cfg.DisableQueueControl = knobs%8 == 6
		sc.normalizeHorizon()
		res, err := RunScenario(sc, sim.NewScheduler())
		if err != nil {
			t.Fatal(err)
		}
		if res.Total > 0 {
			min := MinimizeFailing(sc, sim.NewScheduler())
			t.Fatalf("%d divergences; first: %s\nminimized repro: %+v",
				res.Total, res.Divergences[0], min)
		}
	})
}

// netsimGE maps one byte to a bursty-loss configuration.
func netsimGE(b uint8) netsim.GEConfig {
	return netsim.GEConfig{
		PGoodBad: 0.002 * float64(b%8+1),
		PBadGood: 0.25,
		LossBad:  0.1 * float64(b%10+1),
	}
}
