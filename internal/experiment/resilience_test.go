package experiment

import (
	"runtime"
	"testing"

	"tcptrim/internal/sim"
)

func TestResilienceSmoke(t *testing.T) {
	res, err := RunResilience([]Protocol{ProtoTRIM}, DefaultFaultIntensities[:2], Options{simConfig: &sim.Config{Checks: true}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(res.Rows))
	}
	clean, faulty := res.Rows[0], res.Rows[1]
	if clean.Retention != 1 {
		t.Errorf("baseline retention = %v, want 1", clean.Retention)
	}
	if clean.Injected.InjectedDrops() != 0 || clean.Injected.Reordered != 0 || clean.Injected.Duplicated != 0 {
		t.Errorf("baseline cell recorded injected faults: %+v", clean.Injected)
	}
	if faulty.Injected.BurstLossDrops == 0 {
		t.Error("mild cell injected no bursty loss")
	}
	for _, row := range res.Rows {
		if row.Complete != row.Total {
			t.Errorf("%s/%s completed %d/%d responses", row.Protocol, row.Intensity, row.Complete, row.Total)
		}
		if row.RecoveryTime < 0 {
			t.Errorf("%s/%s never recovered", row.Protocol, row.Intensity)
		}
	}
}

func TestSplitSeedIndependence(t *testing.T) {
	seen := map[int64]int{}
	for _, base := range []int64{0, 1, 7, -3, 1 << 40} {
		for i := 0; i < 1000; i++ {
			s := SplitSeed(base, i)
			if s == base {
				t.Errorf("SplitSeed(%d, %d) returned the base seed", base, i)
			}
			if j, dup := seen[s]; dup {
				t.Fatalf("SplitSeed collision: (%d,%d) and key %d both give %d", base, i, j, s)
			}
			seen[s] = i
		}
	}
}

func TestRunSeededTrialsDeterministicHandout(t *testing.T) {
	run := func() []int64 {
		out, err := RunSeededTrials(64, 42, func(i int, seed int64) (int64, error) {
			// Consume the seed through an rng so any shared-stream bug
			// (draws depending on hand-out order) would surface.
			return sim.NewRand(seed).Int63(), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	prev := runtime.GOMAXPROCS(1)
	serial := run()
	runtime.GOMAXPROCS(8)
	parallel := run()
	runtime.GOMAXPROCS(prev)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("trial %d differs across worker counts: %d vs %d", i, serial[i], parallel[i])
		}
	}
}
