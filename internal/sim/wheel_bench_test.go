package sim

import (
	"testing"
	"time"
	"unsafe"
)

// BenchmarkSchedulerWheel measures the scheduler's hot operations —
// schedule+fire churn through the wheel (sparse, and eight events to a
// 1 µs slot) and through one and six FIFO lanes, and in-place Reset —
// against a standing population of live timers, at the two population
// sizes the paper's workloads span (1k ≈ one fig5 trial, 100k ≈ fig8
// large-scale). Every case must run allocation-free.
func BenchmarkSchedulerWheel(b *testing.B) {
	for _, live := range []int{1_000, 100_000} {
		population := func(s *Scheduler) []Timer {
			timers := make([]Timer, live)
			for i := range timers {
				// Spread standing timers across wheel levels and into the
				// overflow heap so slot scans see realistic occupancy.
				d := time.Duration(1+i%8191) * time.Millisecond
				if i%31 == 0 {
					d += 30 * time.Second
				}
				timers[i] = s.After(d, func() {})
			}
			return timers
		}

		b.Run(sizeLabel("ScheduleFire", live), func(b *testing.B) {
			s := NewScheduler()
			population(s)
			fn := func() {}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.After(time.Microsecond, fn)
				s.Step()
			}
		})

		b.Run(sizeLabel("ScheduleFire/dense", live), func(b *testing.B) {
			s := NewScheduler()
			population(s)
			fn := func() {}
			// Eight events stay pending 125 ns apart, so the slot findMin
			// scans always holds about eight.
			for i := 1; i <= 8; i++ {
				s.After(time.Duration(i)*125*time.Nanosecond, fn)
			}
			cycle := func() {
				s.After(time.Microsecond, fn)
				s.Step()
			}
			requireZeroAllocs(b, cycle)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cycle()
			}
		})

		for _, delays := range [][]time.Duration{{1200}, {32, 320, 1200, 12_000, 10_000, 20_000}} {
			delays := delays
			b.Run(sizeLabel("AfterFIFO/ScheduleFire/lanes="+itoa(len(delays)), live), func(b *testing.B) {
				s := NewScheduler()
				population(s)
				fn := func(unsafe.Pointer) {}
				// A hop's worth of events per lane stays in flight.
				for i := 0; i < 16*len(delays); i++ {
					s.AfterFIFO(nil, delays[i%len(delays)], fn, nil)
					if i%2 == 1 {
						s.Step()
					}
				}
				i := 0
				cycle := func() {
					s.AfterFIFO(nil, delays[i%len(delays)], fn, nil)
					s.Step()
					i++
				}
				requireZeroAllocs(b, cycle)
				b.ReportAllocs()
				b.ResetTimer()
				for n := 0; n < b.N; n++ {
					cycle()
				}
				b.StopTimer()
				if st := s.Stats(); st.Lanes != len(delays) || st.FiredLane < uint64(b.N) {
					b.Fatalf("stats %+v: want %d lanes firing the measured events", st, len(delays))
				}
			})
		}

		b.Run(sizeLabel("Reset", live), func(b *testing.B) {
			s := NewScheduler()
			timers := population(s)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// RTO-like churn: push an existing timer's deadline out.
				if !timers[i%live].Reset(time.Duration(1+i%4096) * time.Millisecond) {
					b.Fatal("Reset = false on live timer")
				}
			}
		})
	}
}

// requireZeroAllocs fails the benchmark if one warm cycle allocates.
func requireZeroAllocs(b *testing.B, cycle func()) {
	b.Helper()
	for i := 0; i < 256; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		b.Fatalf("%.2f allocs/op, want 0", allocs)
	}
}

func sizeLabel(op string, live int) string {
	if live >= 1000 {
		return op + "/live=" + itoa(live/1000) + "k"
	}
	return op + "/live=" + itoa(live)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

func TestTimerResetZeroAlloc(t *testing.T) {
	// Reset re-slots the existing event in place: no free-list traffic,
	// no heap growth once containers are warmed.
	s := NewScheduler()
	tm := s.After(time.Millisecond, func() {})
	// Warm both containers so Reset never grows a backing array.
	warm := make([]Timer, 64)
	for i := range warm {
		warm[i] = s.After(time.Duration(i)*time.Second, func() {})
	}
	for _, w := range warm {
		w.Stop()
	}

	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		i++
		d := time.Duration(1+i%2048) * time.Millisecond
		if i%17 == 0 {
			d = time.Duration(20+i%40) * time.Second // overflow heap
		}
		if !tm.Reset(d) {
			t.Fatal("Reset = false on live timer")
		}
	})
	if allocs != 0 {
		t.Errorf("Reset allocates %.2f allocs/op, want 0", allocs)
	}
}

func TestSchedulerWheelSteadyStateZeroAllocWithPopulation(t *testing.T) {
	// The 1k-population schedule+fire cycle must stay allocation-free:
	// slot scans and cascades reuse pooled events and fixed bitmaps.
	s := NewScheduler()
	for i := 0; i < 1000; i++ {
		s.After(time.Duration(1+i%1000)*time.Millisecond, func() {})
	}
	fn := func() {}
	for i := 0; i < 64; i++ { // warm the free list
		s.After(time.Microsecond, fn)
	}
	s.RunUntil(s.Now().Add(time.Millisecond))

	allocs := testing.AllocsPerRun(1000, func() {
		s.After(time.Microsecond, fn)
		if !s.Step() {
			t.Fatal("Step() found no event")
		}
	})
	if allocs != 0 {
		t.Errorf("populated After+fire allocates %.2f allocs/op, want 0", allocs)
	}
}
