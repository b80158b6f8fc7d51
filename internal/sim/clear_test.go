package sim

import (
	"testing"
	"time"
	"unsafe"
)

// Clear returns a scheduler to what NewScheduler returns while keeping
// the storage it grew; the differential side is TestSchedulerDifferentialClear.

// TestClearKillsTimers: a Timer taken before Clear, in the wheel or the
// overflow heap, reports false from Stop, Reset and Pending, and leaves
// alone the callback that reuses its event afterwards.
func TestClearKillsTimers(t *testing.T) {
	s := NewScheduler()
	near := s.After(time.Millisecond, func() { t.Error("a timer armed before Clear fired") })
	far := s.After(time.Hour, func() { t.Error("a timer armed before Clear fired") })
	s.Clear()
	fired := 0
	var fresh []Timer
	for i := 0; i < 2; i++ {
		fresh = append(fresh, s.After(time.Millisecond, func() { fired++ }))
	}
	if near.ev != fresh[0].ev && near.ev != fresh[1].ev {
		t.Fatal("no event of the cleared timers was reused: the test shows nothing")
	}
	for _, old := range []Timer{near, far} {
		if old.Pending() || old.Stop() || old.Reset(time.Hour) {
			t.Fatal("a Timer taken before Clear still acts")
		}
	}
	for _, f := range fresh {
		if !f.Pending() {
			t.Fatal("a stale Timer touched its event's new occupant")
		}
	}
	s.Run()
	if fired != 2 || s.Now() != At(time.Millisecond) {
		t.Fatalf("fired %d at %v, want 2 at 1ms", fired, s.Now())
	}
}

// TestClearReadsLanesSwitch: a scheduler cleared inside WheelOnly serves
// AfterFIFO from the wheel, one cleared outside it from lanes, whichever
// way it was built.
func TestClearReadsLanesSwitch(t *testing.T) {
	arm := func(s *Scheduler) Stats {
		for i := 0; i < 2*laneAdmitAfter; i++ {
			s.AfterFIFO(nil, time.Microsecond, func(unsafe.Pointer) {}, nil)
		}
		s.Run()
		return s.Stats()
	}
	s := NewScheduler()
	WheelOnly(s.Clear)
	if st := arm(s); st.Lanes != 0 || st.FiredLane != 0 {
		t.Fatalf("cleared inside WheelOnly, a lane served AfterFIFO: %+v", st)
	}
	WheelOnly(func() { s = NewScheduler() })
	s.Clear()
	if st := arm(s); st.Lanes != 1 || st.FiredLane == 0 {
		t.Fatalf("cleared outside WheelOnly, no lane served AfterFIFO: %+v", st)
	}
}

// TestClearAccounting: with invariant checks armed, CheckAccounting passes
// right after Clear from every container holding entries, and the cleared
// scheduler reads as new: clock, Len, Fired and Stats at zero.
func TestClearAccounting(t *testing.T) {
	SetInvariantChecks(true)
	defer SetInvariantChecks(false)
	s := NewScheduler()
	s.After(time.Millisecond, func() {})
	s.RunUntil(At(500 * time.Microsecond))
	leavePending(t, s, &fifoHandles{})
	s.Clear()
	s.CheckAccounting()
	if s.Now() != 0 || s.Len() != 0 || s.Fired() != 0 || s.Stats() != (Stats{}) || s.PeekTime() != End {
		t.Fatalf("cleared: now=%v len=%d fired=%d stats=%+v peek=%v", s.Now(), s.Len(), s.Fired(), s.Stats(), s.PeekTime())
	}
}

// TestClearInsideRunPanics: Clear from a callback would pull the queue
// from under the run loop.
func TestClearInsideRunPanics(t *testing.T) {
	s := NewScheduler()
	s.After(0, s.Clear)
	defer func() {
		if recover() == nil {
			t.Fatal("Clear inside the run loop did not panic")
		}
	}()
	s.Run()
}
