package experiment

import (
	"bytes"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"tcptrim/internal/cellcache"
	"tcptrim/internal/hybrid"
	"tcptrim/internal/netsim"
	"tcptrim/internal/sim"
	"tcptrim/internal/tcp"
	"tcptrim/internal/workload"
)

// A Run reuses the environments of its finished cells: a worker builds
// one scheduler, one set of random sources, one packet pool, one set of
// queue bands, one fleet of connections and one schedule slab, not one
// per cell.

// recycledArms are the faulted-star slices the recycling tests run, four
// random sources in a cell (the scene's and three fault injectors'), under
// every queue discipline sweep_cold runs: drop-tail, RED, FavourQueue's
// two bands and CoDel. abl-probe's cells schedule each flow's responses
// in a call of their own, eight to a cell, so a cell on a fresh
// environment regrows the schedule slab between its calls while the
// schedules cut before still wait to be released. golden names the arm's
// pinned table; an arm with none is held to its render with no env list,
// a fresh network per cell.
var recycledArms = []struct {
	id, golden string
	opts       Options
}{
	{"resilience-smoke", "resilience-smoke.txt", Options{}},
	{"resilience-smoke", "resilience-smoke.aqm-red.txt", Options{AQM: "red"}},
	{"resilience-smoke", "", Options{AQM: "favour"}},
	{"recoverysweep-smoke", "recoverysweep-smoke.txt", Options{}},
	{"recoverysweep-smoke", "", Options{AQM: "codel"}},
	{"abl-probe", "abl-probe.txt", Options{}},
}

// TestRecycledRunsMatchGoldens runs each arm through Run at GOMAXPROCS 1
// and 2, twice in one process, and once with the lanes off: every table
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
		check := func(run string, opts Options) {
			var buf bytes.Buffer
			if err := Run(arm.id, opts, &buf); err != nil {
				t.Fatalf("%s, %s: %v", name, run, err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("%s, %s: output differs from its golden:\n%s", name, run, buf.Bytes())
			}
		}
		for _, procs := range []int{1, 2} {
			old := runtime.GOMAXPROCS(procs)
			check("first run", arm.opts)
			check("second run", arm.opts)
			runtime.GOMAXPROCS(old)
		}
		check("wheel only", noLanes(arm.opts))
	}
}

// TestRunBuildsOneEnvPerWorker: at GOMAXPROCS 1 a Run's cells take turns
// on one environment, which holds no more random sources than a cell
// uses, the network and the fleet's connections its last cell built and a
// schedule slab holding that cell's schedules, and the Run allocates at
// least a scheduler, a slab of packets, a fleet's connections and its
// schedules per further cell less than its runner does with no env list.
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
	if f := envs[0].fleet; f == nil || f.Fidelity() != hybrid.FidelityPacket || f.NumFlows() != rwServers {
		t.Fatalf("%s's environment holds fleet %v, want its last cell's %d packet-fidelity connections", id, f, rwServers)
	}
	if n := len(envs[0].trains); n != rwServers*rwPerServer {
		t.Fatalf("%s's schedule slab holds %d trains, want its last cell's %d", id, n, rwServers*rwPerServer)
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
	t.Logf("%s: %d bytes with a fresh environment per cell, %d recycled (%d and %d per cell)",
		id, fresh, recycled, fresh/cells, recycled/cells)
	perCell := unsafe.Sizeof(sim.Scheduler{}) + unsafe.Sizeof([16]netsim.Packet{}) +
		rwServers*unsafe.Sizeof(tcp.Conn{}) + rwServers*rwPerServer*unsafe.Sizeof(workload.Train{})
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

// TestNoCellRowHoldsAConn: a sweep worker's next cell builds its
// connections in the objects of the last cell's, so a row a cell returns
// must not reach a tcp.Conn, directly or through any type it is made of
// (a fleet, a server, a callback or an interface could hide one). The
// package is type-checked from source and the row type of every sweep
// and cachedCell instantiation is walked.
func TestNoCellRowHoldsAConn(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var parsed []*ast.File
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		parsed = append(parsed, f)
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	info := &types.Info{Instances: map[*ast.Ident]types.Instance{}}
	if _, err := conf.Check("tcptrim/internal/experiment", fset, parsed, info); err != nil {
		t.Fatal(err)
	}
	rows := 0
	for id, inst := range info.Instances {
		var row types.Type
		switch id.Name {
		case "sweep":
			row = inst.TypeArgs.At(1)
		case "cachedCell":
			row = inst.TypeArgs.At(0)
		default:
			continue
		}
		rows++
		if path := reachesConn(row, map[types.Type]bool{}); path != "" {
			t.Errorf("%s: the row %s reaches a connection: %s", fset.Position(id.Pos()), row, path)
		}
	}
	if rows < 10 {
		t.Fatalf("found %d row types, want every sweep's", rows)
	}
}

// tapFields are the callbacks a row may hold: a series' tap captures the
// run's Progress hook alone (Options.tapSeries).
var tapFields = map[string]bool{"tcptrim/internal/metrics.Series.tap": true}

// reachesConn returns how typ reaches tcp.Conn, or "" when it cannot: an
// interface or func value could hold anything, so either counts as
// reaching it, but for error and the fields in tapFields.
func reachesConn(typ types.Type, seen map[types.Type]bool) string {
	if seen[typ] {
		return ""
	}
	seen[typ] = true
	switch t := typ.(type) {
	case *types.Named:
		if obj := t.Obj(); obj.Pkg() != nil && obj.Pkg().Path() == "tcptrim/internal/tcp" && obj.Name() == "Conn" {
			return "tcp.Conn"
		}
		if types.Identical(t, types.Universe.Lookup("error").Type()) {
			return ""
		}
		if st, ok := t.Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if tapFields[t.String()+"."+f.Name()] {
					continue
				}
				if p := reachesConn(f.Type(), seen); p != "" {
					return t.Obj().Name() + "." + f.Name() + " " + p
				}
			}
			return ""
		}
		if p := reachesConn(t.Underlying(), seen); p != "" {
			return t.Obj().Name() + "." + p
		}
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if p := reachesConn(t.Field(i).Type(), seen); p != "" {
				return t.Field(i).Name() + " " + p
			}
		}
	case *types.Pointer:
		return reachesConn(t.Elem(), seen)
	case *types.Slice:
		return reachesConn(t.Elem(), seen)
	case *types.Array:
		return reachesConn(t.Elem(), seen)
	case *types.Map:
		if p := reachesConn(t.Key(), seen); p != "" {
			return p
		}
		return reachesConn(t.Elem(), seen)
	case *types.Chan:
		return reachesConn(t.Elem(), seen)
	case *types.Interface, *types.Signature:
		return typ.String()
	}
	return ""
}
