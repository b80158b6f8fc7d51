package conformance

import (
	"time"

	"tcptrim/internal/netsim"
	"tcptrim/internal/sim"
)

// Minimize shrinks a failing scenario to a (locally) minimal one that
// still fails, using greedy delta-debugging: faults are stripped, the
// train schedule is chunk-reduced, train sizes and gaps are shrunk, and
// optional connection features are turned off — keeping each
// simplification only if the scenario still fails. fails reports
// whether a candidate scenario still reproduces the divergence (it is
// called many times; scenarios are pure values, so each call is an
// independent deterministic run).
//
// The returned scenario is what a regression test should pin: small
// enough to read, still failing on the code under investigation.
func Minimize(sc Scenario, fails func(Scenario) bool) Scenario {
	if !fails(sc) {
		return sc // not failing: nothing to minimize
	}
	best := sc

	try := func(cand Scenario) bool {
		cand.normalizeHorizon()
		if fails(cand) {
			best = cand
			return true
		}
		return false
	}

	// Pass 1: strip whole features. Order matters only for greed; each
	// removal is retried after later passes shrink the trains.
	for changed := true; changed; {
		changed = false
		if best.Loss.Enabled() {
			cand := best
			cand.Loss = netsim.GEConfig{}
			changed = try(cand) || changed
		}
		if best.ReorderProb > 0 {
			cand := best
			cand.ReorderProb, cand.ReorderExtra = 0, 0
			changed = try(cand) || changed
		}
		if best.DupProb > 0 {
			cand := best
			cand.DupProb = 0
			changed = try(cand) || changed
		}
		if best.Jitter > 0 {
			cand := best
			cand.Jitter = 0
			changed = try(cand) || changed
		}
		if len(best.CrossTrains) > 0 {
			cand := best
			cand.CrossTrains = nil
			changed = try(cand) || changed
		}
		if best.SACK {
			cand := best
			cand.SACK = false
			changed = try(cand) || changed
		}
		if best.DelayedAck > 0 {
			cand := best
			cand.DelayedAck = 0
			changed = try(cand) || changed
		}

		// Pass 2: ddmin over the train list — drop progressively
		// smaller chunks while the failure survives.
		for chunk := len(best.Trains) / 2; chunk >= 1; chunk /= 2 {
			for at := 0; at+chunk <= len(best.Trains); {
				cand := best
				cand.Trains = append(append([]Train(nil), best.Trains[:at]...), best.Trains[at+chunk:]...)
				if len(cand.Trains) > 0 && try(cand) {
					changed = true
					continue // same offset now holds the next chunk
				}
				at += chunk
			}
		}

		// Pass 3: shrink each surviving train to one segment and close
		// up long gaps, one train at a time.
		for i := range best.Trains {
			if best.Trains[i].Bytes > 1460 {
				cand := best
				cand.Trains = append([]Train(nil), best.Trains...)
				cand.Trains[i].Bytes = 1460
				changed = try(cand) || changed
			}
		}
		for i := 1; i < len(best.Trains); i++ {
			gap := best.Trains[i].Start - best.Trains[i-1].Start
			if gap > 2*time.Millisecond {
				cand := best
				cand.Trains = append([]Train(nil), best.Trains...)
				delta := gap - 2*time.Millisecond
				for j := i; j < len(cand.Trains); j++ {
					cand.Trains[j].Start -= delta
				}
				changed = try(cand) || changed
			}
		}
	}
	return best
}

// normalizeHorizon keeps the run window tight after train reduction.
func (sc *Scenario) normalizeHorizon() {
	last := time.Duration(0)
	for _, t := range sc.Trains {
		if t.Start > last {
			last = t.Start
		}
	}
	for _, t := range sc.CrossTrains {
		if t.Start > last {
			last = t.Start
		}
	}
	sc.Horizon = last + 500*time.Millisecond
}

// MinimizeFailing is Minimize with the standard oracle check: a
// scenario "fails" when the shadow records any divergence. Every
// candidate runs on sched.
func MinimizeFailing(sc Scenario, sched *sim.Scheduler) Scenario {
	return Minimize(sc, func(cand Scenario) bool {
		res, err := RunScenario(cand, sched)
		return err == nil && res.Total > 0
	})
}
