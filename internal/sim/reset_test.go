package sim

import (
	"testing"
	"time"
)

// Timer.Reset re-arms in place. These tests pin its generation safety:
// a fired, stopped, or zero handle must be inert, and a reset must never
// touch an event recycled for a different callback.

func TestTimerResetMovesDeadline(t *testing.T) {
	s := NewScheduler()
	var firedAt []Time
	tm := s.After(time.Millisecond, func() { firedAt = append(firedAt, s.Now()) })
	if !tm.Reset(5 * time.Millisecond) {
		t.Fatal("Reset on pending timer = false")
	}
	if !tm.Pending() {
		t.Fatal("timer not pending after Reset")
	}
	s.Run()
	if len(firedAt) != 1 {
		t.Fatalf("fired %d times, want 1", len(firedAt))
	}
	if firedAt[0] != At(5*time.Millisecond) {
		t.Errorf("fired at %v, want 5ms", firedAt[0])
	}
}

func TestTimerResetEarlier(t *testing.T) {
	s := NewScheduler()
	fired := Time(-1)
	tm := s.After(10*time.Millisecond, func() { fired = s.Now() })
	s.RunUntil(At(2 * time.Millisecond))
	if !tm.Reset(time.Millisecond) {
		t.Fatal("Reset on pending timer = false")
	}
	s.Run()
	if fired != At(3*time.Millisecond) {
		t.Errorf("fired at %v, want 3ms", fired)
	}
}

func TestTimerResetZeroTimerInert(t *testing.T) {
	var tm Timer
	if tm.Reset(time.Millisecond) {
		t.Error("Reset on zero Timer = true")
	}
}

func TestTimerResetAfterStopInert(t *testing.T) {
	s := NewScheduler()
	tm := s.After(time.Millisecond, func() { t.Error("stopped timer fired") })
	if !tm.Stop() {
		t.Fatal("Stop = false")
	}
	if tm.Reset(time.Millisecond) {
		t.Error("Reset after Stop = true")
	}
	s.Run()
}

func TestTimerResetAfterFireInert(t *testing.T) {
	s := NewScheduler()
	count := 0
	tm := s.After(time.Millisecond, func() { count++ })
	s.Run()
	if tm.Reset(time.Millisecond) {
		t.Error("Reset after fire = true")
	}
	s.Run()
	if count != 1 {
		t.Errorf("fired %d times, want 1", count)
	}
}

func TestTimerResetGenerationAliasing(t *testing.T) {
	// After the timer fires, its event is recycled for a different
	// callback. The stale handle's Reset must not re-slot the new
	// occupant.
	s := NewScheduler()
	old := s.After(time.Millisecond, func() {})
	s.Run()

	fired := Time(-1)
	fresh := s.After(time.Millisecond, func() { fired = s.Now() })
	if old.Reset(time.Hour) {
		t.Error("stale handle Reset returned true")
	}
	if !fresh.Pending() {
		t.Fatal("stale Reset disturbed the recycled event")
	}
	s.Run()
	if fired != At(time.Millisecond+time.Millisecond) {
		t.Errorf("recycled event fired at %v, want 2ms", fired)
	}
}

func TestTimerResetFromInsideCallbackInert(t *testing.T) {
	// The event is released before its callback runs, so a callback
	// resetting its own timer must see false (matching Stop).
	s := NewScheduler()
	var tm Timer
	reset := true
	tm = s.After(time.Millisecond, func() { reset = tm.Reset(time.Millisecond) })
	s.Run()
	if reset {
		t.Error("Reset from inside the firing callback returned true")
	}
}

func TestTimerResetMatchesStopAfterOrdering(t *testing.T) {
	// Reset consumes one sequence number, exactly like Stop+After, so a
	// reset timer runs after an event scheduled earlier for the same
	// instant and before one scheduled later.
	run := func(reset bool) []int {
		s := NewScheduler()
		var got []int
		tm := s.After(time.Millisecond, func() { got = append(got, 0) })
		s.After(2*time.Millisecond, func() { got = append(got, 1) })
		if reset {
			if !tm.Reset(2 * time.Millisecond) {
				t.Fatal("Reset = false")
			}
		} else {
			tm.Stop()
			s.After(2*time.Millisecond, func() { got = append(got, 0) })
		}
		s.After(2*time.Millisecond, func() { got = append(got, 2) })
		s.Run()
		return got
	}
	a, b := run(true), run(false)
	if len(a) != 3 || len(b) != 3 {
		t.Fatalf("lengths: reset=%d stop+after=%d, want 3", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("order diverges: reset=%v stop+after=%v", a, b)
		}
	}
	if want := []int{1, 0, 2}; a[0] != want[0] || a[1] != want[1] || a[2] != want[2] {
		t.Errorf("order = %v, want %v", a, want)
	}
}

func TestTimerResetNegativeClampsToNow(t *testing.T) {
	s := NewScheduler()
	var got []int
	s.After(time.Millisecond, func() {
		tm := s.After(time.Hour, func() { got = append(got, 2) })
		s.After(0, func() { got = append(got, 1) })
		if !tm.Reset(-time.Second) {
			t.Error("Reset with negative d = false")
		}
	})
	s.Run()
	// The reset event lands at the current instant with a later seq than
	// the zero-delay event scheduled just before it.
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("order = %v, want [1 2]", got)
	}
}

func TestTimerResetAcrossWheelAndOverflow(t *testing.T) {
	// Reset must re-file events across containers: near-future (wheel)
	// to far-future (overflow heap) and back, without losing accounting.
	s := NewSchedulerWith(Config{Checks: true})
	fired := Time(-1)
	tm := s.After(time.Millisecond, func() { fired = s.Now() })
	if !tm.Reset(time.Hour) { // far beyond the wheel span: overflow heap
		t.Fatal("Reset to far future = false")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
	s.CheckAccounting()
	if !tm.Reset(2 * time.Millisecond) { // back into the wheel
		t.Fatal("Reset back to near future = false")
	}
	s.CheckAccounting()
	s.Run()
	if fired != At(2*time.Millisecond) {
		t.Errorf("fired at %v, want 2ms", fired)
	}
	if s.Len() != 0 {
		t.Errorf("Len after run = %d, want 0", s.Len())
	}
}

func TestTimerResetStopAfterReset(t *testing.T) {
	s := NewScheduler()
	tm := s.After(time.Millisecond, func() { t.Error("stopped timer fired") })
	if !tm.Reset(2 * time.Millisecond) {
		t.Fatal("Reset = false")
	}
	if !tm.Stop() {
		t.Fatal("Stop after Reset = false; handle must stay valid")
	}
	s.Run()
}

func TestTimerResetRepeatedChurn(t *testing.T) {
	// An RTO-like pattern: the same timer reset thousands of times with
	// interleaved traffic events; it must fire exactly once, at the last
	// deadline.
	s := NewSchedulerWith(Config{Checks: true})
	fired := 0
	tm := s.After(200*time.Millisecond, func() { fired++ })
	for i := 0; i < 5000; i++ {
		s.After(time.Duration(i)*time.Microsecond, func() {
			if !tm.Reset(200 * time.Millisecond) {
				t.Error("Reset = false mid-churn")
			}
		})
	}
	s.Run()
	if fired != 1 {
		t.Fatalf("timer fired %d times, want 1", fired)
	}
	if want := At(4999*time.Microsecond + 200*time.Millisecond); s.Now() != want {
		t.Errorf("final fire at %v, want %v", s.Now(), want)
	}
}
