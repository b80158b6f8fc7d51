package sim

import (
	"sync"
	"testing"
	"time"
	"unsafe"
)

// noLanes is the default configuration with the lanes off.
func noLanes() Config {
	c := defaultConfig
	c.NoLanes = true
	return c
}

// TestConfigsDoNotLeak builds schedulers with different configurations,
// one after the other, and runs them at the same time on the same
// programs: each runs as it was built, whatever was built after it and
// whatever runs beside it.
func TestConfigsDoNotLeak(t *testing.T) {
	// chain arms laneAdmitAfter AfterFIFO chains on one delay: enough to
	// earn a lane, unless the lanes are off.
	chain := func(cfg Config) *Scheduler {
		s := NewSchedulerWith(cfg)
		var next func(unsafe.Pointer)
		next = func(unsafe.Pointer) {
			if s.Fired() < 4*laneAdmitAfter {
				s.AfterFIFO(nil, time.Microsecond, next, nil)
			}
		}
		for i := 0; i < laneAdmitAfter; i++ {
			s.AfterFIFO(nil, time.Microsecond, next, nil)
		}
		return s
	}
	// drifted corrupts a release queue the way TestReleasesArmedDriftPanics
	// does: releasing its armed value panics only under the checks.
	drifted := func(cfg Config) *Scheduler {
		s := NewSchedulerWith(cfg)
		q := NewReleases(s, func(int) {})
		for _, us := range []int{5, 9} {
			if err := q.Push(At(time.Duration(us)*time.Microsecond), us); err != nil {
				t.Fatal(err)
			}
		}
		q.h[0], q.h[1] = q.h[1], q.h[0]
		return s
	}
	cfgs := []Config{{NoLanes: true}, defaultConfig, {Checks: true}, {NoLanes: true, Checks: true}}
	for range 100 {
		var wg sync.WaitGroup
		for _, cfg := range cfgs {
			lanes, drift := chain(cfg), drifted(cfg)
			wg.Add(1)
			go func() {
				defer wg.Done()
				lanes.Run()
				if st := lanes.Stats(); (st.FiredLane == 0) != cfg.NoLanes || (st.Lanes == 0) != cfg.NoLanes {
					t.Errorf("built with %+v: lane stats %+v", cfg, st)
				}
				defer func() {
					if panicked := recover() != nil; panicked != cfg.Checks {
						t.Errorf("built with %+v: a drifted release panicked: %v", cfg, panicked)
					}
				}()
				drift.Step()
			}()
		}
		wg.Wait()
	}
}
