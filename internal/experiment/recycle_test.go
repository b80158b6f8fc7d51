package experiment

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"unsafe"

	"tcptrim/internal/cellcache"
	"tcptrim/internal/netsim"
	"tcptrim/internal/sim"
)

// A Run reuses the environments of its finished cells: a worker builds
// one scheduler, one set of random sources, one packet pool and one set of
// queue bands, not one per cell.

// recycledArms are the faulted-star slices the recycling tests run, four
// random sources in a cell (the scene's and three fault injectors'), under
// every queue discipline sweep_cold runs: drop-tail, RED, FavourQueue's
// two bands and CoDel. golden names the arm's pinned table; an arm with
// none is held to its render with no env list, a fresh network per cell.
var recycledArms = []struct {
	id, golden string
	opts       Options
}{
	{"resilience-smoke", "resilience-smoke.txt", Options{}},
	{"resilience-smoke", "resilience-smoke.aqm-red.txt", Options{AQM: "red"}},
	{"resilience-smoke", "", Options{AQM: "favour"}},
	{"recoverysweep-smoke", "recoverysweep-smoke.txt", Options{}},
	{"recoverysweep-smoke", "", Options{AQM: "codel"}},
}

// TestRecycledRunsMatchGoldens runs each arm through Run at GOMAXPROCS 1
// and 2, twice in one process, and once under sim.WheelOnly: every table
// is its golden, whichever earlier cell, run or lanes setting left the
// environment a cell clears and the network it recycles.
func TestRecycledRunsMatchGoldens(t *testing.T) {
	for _, arm := range recycledArms {
		name := arm.id + "@" + arm.opts.AQM
		var want []byte
		if arm.golden != "" {
			var err error
			if want, err = os.ReadFile(filepath.Join(goldenDir, arm.golden)); err != nil {
				t.Fatal(err)
			}
		} else {
			var buf bytes.Buffer
			if err := registry[arm.id].run(arm.opts, &buf); err != nil {
				t.Fatalf("%s, fresh networks: %v", name, err)
			}
			want = buf.Bytes()
		}
		check := func(run string) {
			var buf bytes.Buffer
			if err := Run(arm.id, arm.opts, &buf); err != nil {
				t.Fatalf("%s, %s: %v", name, run, err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("%s, %s: output differs from its golden:\n%s", name, run, buf.Bytes())
			}
		}
		for _, procs := range []int{1, 2} {
			old := runtime.GOMAXPROCS(procs)
			check("first run")
			check("second run")
			runtime.GOMAXPROCS(old)
		}
		sim.WheelOnly(func() { check("wheel only") })
	}
}

// TestRunBuildsOneEnvPerWorker: at GOMAXPROCS 1 a Run's cells take turns
// on one environment, which holds no more random sources than a cell
// uses and the network its last cell built, and the Run allocates at
// least a scheduler and a slab of packets per further cell less than its
// runner does with no env list.
func TestRunBuildsOneEnvPerWorker(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own account")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const id, cells = "recoverysweep-smoke", 3
	opts := Options{envs: new(envList)}
	if err := registry[id].run(opts, io.Discard); err != nil {
		t.Fatal(err)
	}
	var envs []*simEnv
	for e := opts.envs.free; e != nil; e = e.next {
		envs = append(envs, e)
	}
	if len(envs) != 1 || len(envs[0].rands) != 4 || envs[0].net == nil {
		t.Fatalf("%s left %d environments in its list, want 1 with the 4 sources its cells use and its last network", id, len(envs))
	}
	allocated := func(opts Options) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := registry[id].run(opts, io.Discard); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	fresh, recycled := allocated(Options{}), allocated(Options{envs: new(envList)})
	t.Logf("%s: %d bytes with a fresh environment per cell, %d recycled", id, fresh, recycled)
	perCell := unsafe.Sizeof(sim.Scheduler{}) + unsafe.Sizeof([16]netsim.Packet{})
	if saved := (cells - 1) * uint64(perCell); recycled+saved > fresh {
		t.Errorf("%s allocated %d bytes recycling environments and %d without: want at least %d less", id, recycled, fresh, saved)
	}
}

// TestStoredRunAllocs pins what a Run answered by StoredRun allocates: an
// env list is made only once the store misses.
func TestStoredRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own account")
	}
	opts := Options{Cache: cellcache.NewMemory()}
	if err := Run("resilience-smoke", opts, io.Discard); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := Run("resilience-smoke", opts, io.Discard); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per stored run", allocs)
	// One when pinned (go1.24, amd64), as before Runs kept env lists.
	const parent = 1
	if allocs != parent {
		t.Errorf("a stored run allocates %.0f times, want %d", allocs, parent)
	}
}
