package sim

import (
	"testing"
	"time"
	"unsafe"
)

// funcID identifies a func value by its closure.
func funcID(fn func(unsafe.Pointer)) unsafe.Pointer {
	return *(*unsafe.Pointer)(unsafe.Pointer(&fn))
}

// TestArgTimerMatchesClosureTimer drives two schedulers through the same
// random program: one arms each timer as a closure (After, At), the other
// in the argument form (AfterArg, AtArg), with AfterFIFO traffic on both
// keeping lanes busy. Reset, Stop and Pending verdicts, Len, PeekTime, the
// clock and the firing trace must agree after every operation, and
// WalkFIFO must visit exactly the pending argument-form timers besides
// the FIFO events the closure side also holds, each with its own
// argument. With the lanes off as well as live.
func TestArgTimerMatchesClosureTimer(t *testing.T) {
	run := func(t *testing.T, cfg Config) (laneFired uint64) {
		for seed := int64(0); seed < 20; seed++ {
			laneFired += argTimerProgram(t, seed, cfg)
		}
		return laneFired
	}
	t.Run("lanes", func(t *testing.T) {
		if run(t, defaultConfig) == 0 {
			t.Error("no FIFO event fired from a lane")
		}
	})
	t.Run("wheel-only", func(t *testing.T) {
		if run(t, noLanes()) != 0 {
			t.Error("a lane fired with the lanes off")
		}
	})
}

func argTimerProgram(t *testing.T, seed int64, cfg Config) (laneFired uint64) {
	t.Helper()
	const n = 48
	rng := NewRand(seed)
	cs, as := NewSchedulerWith(cfg), NewSchedulerWith(cfg)
	var ctrace, atrace []traceEntry
	ids := make([]int, 2*n) // the timers' arguments, then the FIFO events'
	for i := range ids {
		ids[i] = i
	}
	fire := func(p unsafe.Pointer) { atrace = append(atrace, traceEntry{*(*int)(p), as.Now()}) }
	cfifo := func(p unsafe.Pointer) { ctrace = append(ctrace, traceEntry{*(*int)(p), cs.Now()}) }
	afifo := func(p unsafe.Pointer) { atrace = append(atrace, traceEntry{*(*int)(p), as.Now()}) }
	ct, at := make([]Timer, n), make([]Timer, n)
	delay := func() time.Duration {
		if rng.Intn(16) == 0 {
			return time.Duration(1+rng.Intn(60)) * time.Second // the overflow heap
		}
		return time.Duration(rng.Intn(40_000)) // the wheel
	}
	for op := 0; op < 1500; op++ {
		i := rng.Intn(n)
		k := rng.Intn(7)
		if k < 2 {
			// Re-arming a handle stops its pending event first, so the
			// argument of each pending timer is its own.
			ct[i].Stop()
			at[i].Stop()
		}
		switch k {
		case 0:
			d := delay()
			ct[i] = cs.After(d, func() { ctrace = append(ctrace, traceEntry{i, cs.Now()}) })
			at[i] = as.AfterArg(d, fire, unsafe.Pointer(&ids[i]))
		case 1:
			when := cs.Now().Add(delay())
			if rng.Intn(8) == 0 {
				when = cs.Now() - 1
			}
			var cerr, aerr error
			ct[i], cerr = cs.At(when, func() { ctrace = append(ctrace, traceEntry{i, cs.Now()}) })
			at[i], aerr = as.AtArg(when, fire, unsafe.Pointer(&ids[i]))
			if cerr != aerr {
				t.Fatalf("seed %d op %d: At err %v, AtArg err %v", seed, op, cerr, aerr)
			}
		case 2:
			d := delay()
			if c, a := ct[i].Reset(d), at[i].Reset(d); c != a {
				t.Fatalf("seed %d op %d: Reset verdicts: closure %v, arg %v", seed, op, c, a)
			}
		case 3:
			if c, a := ct[i].Stop(), at[i].Stop(); c != a {
				t.Fatalf("seed %d op %d: Stop verdicts: closure %v, arg %v", seed, op, c, a)
			}
		case 4, 5: // recurring delays earn lanes
			d := []time.Duration{320, 1200, 12_000}[rng.Intn(3)]
			f := n + rng.Intn(n)
			cs.AfterFIFO(nil, d, cfifo, unsafe.Pointer(&ids[f]))
			as.AfterFIFO(nil, d, afifo, unsafe.Pointer(&ids[f]))
		case 6:
			h := cs.Now().Add(time.Duration(rng.Intn(20_000)))
			cs.RunUntil(h)
			as.RunUntil(h)
		}
		if cs.Now() != as.Now() || cs.Len() != as.Len() || cs.PeekTime() != as.PeekTime() {
			t.Fatalf("seed %d op %d: closure now=%v len=%d peek=%v, arg now=%v len=%d peek=%v", seed, op,
				cs.Now(), cs.Len(), cs.PeekTime(), as.Now(), as.Len(), as.PeekTime())
		}
		pending := 0
		for k := range ct {
			if ct[k].Pending() != at[k].Pending() {
				t.Fatalf("seed %d op %d: timer %d pending: closure %v, arg %v", seed, op, k, ct[k].Pending(), at[k].Pending())
			}
			if at[k].Pending() {
				pending++
			}
		}
		cFIFO, aFIFO := 0, 0
		cs.WalkFIFO(func(fn func(unsafe.Pointer), _ unsafe.Pointer) {
			if funcID(fn) != funcID(cfifo) {
				t.Fatalf("seed %d op %d: closure side walked a foreign callback", seed, op)
			}
			cFIFO++
		})
		seen := map[int]bool{}
		as.WalkFIFO(func(fn func(unsafe.Pointer), p unsafe.Pointer) {
			switch id := *(*int)(p); funcID(fn) {
			case funcID(afifo):
				aFIFO++
			case funcID(fire):
				if seen[id] || !at[id].Pending() {
					t.Fatalf("seed %d op %d: walk visited timer %d (seen %v, pending %v)", seed, op, id, seen[id], at[id].Pending())
				}
				seen[id] = true
			default:
				t.Fatalf("seed %d op %d: walk visited a foreign callback", seed, op)
			}
		})
		if cFIFO != aFIFO || len(seen) != pending {
			t.Fatalf("seed %d op %d: walk saw %d FIFO events (closure side %d) and %d timers (%d pending)",
				seed, op, aFIFO, cFIFO, len(seen), pending)
		}
		if cfg.Checks {
			cs.CheckAccounting()
			as.CheckAccounting()
		}
	}
	cs.Run()
	as.Run()
	if len(ctrace) != len(atrace) || cs.Now() != as.Now() || cs.Fired() != as.Fired() {
		t.Fatalf("seed %d: closure fired %d (now %v), arg fired %d (now %v)", seed, len(ctrace), cs.Now(), len(atrace), as.Now())
	}
	for k := range ctrace {
		if ctrace[k] != atrace[k] {
			t.Fatalf("seed %d: traces diverge at %d: closure %+v, arg %+v", seed, k, ctrace[k], atrace[k])
		}
	}
	return as.Stats().FiredLane
}
