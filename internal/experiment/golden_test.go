package experiment

// TestRunnerGoldens is the reproduction's byte-identity contract: every
// registered runner, at seed 1 with default options, prints exactly
// testdata/golden/<id>.txt, and prints it again along every axis that
// must not be an input — the worker count, the event container, the
// connection fidelity (where the runner honors it) and the cell store,
// cold, answering the whole run, and composing the run from stored cells.
//
//	go test -run TestRunnerGoldens ./internal/experiment/                    # fast runners
//	go test -run TestRunnerGoldens ./internal/experiment/ -args -golden.all  # every runner
//	go test -run TestRunnerGoldens ./internal/experiment/ -args -update      # rewrite what ran
//
// A golden holds the run's output; for a runner that exports CSV, a
// `sha256sum`-style line per file follows the last table. fig8million's
// host-measured resource lines are not in it (see tableOnly). Where
// hybrid fidelity is known to print other bytes, <id>.hybrid.txt pins
// them; fixing the divergence deletes that file. Each option value in
// optionArms is pinned in <id>.<arm>.txt for every runner that honors it.

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"tcptrim/internal/cellcache"
	"tcptrim/internal/sim"
)

var (
	update    = flag.Bool("update", false, "rewrite testdata/golden from the baseline renders")
	goldenAll = flag.Bool("golden.all", false, "also run the runners that take over a second to render")
)

// slowRunners take more than a second to render once on a 2-vCPU 2.1 GHz
// Xeon; TestRunnerGoldens covers them only under -golden.all.
var slowRunners = map[string]bool{
	"fig8": true, "fig8million": true, "fig8million-smoke": true,
	"fig10": true, "fig11": true, "fig12": true, "fig13a": true,
	"table1": true, "aqmsweep": true,
}

const goldenDir = "testdata/golden"

// optionArms are the option values pinned for every runner that honors
// the option, each in <id>.<name>.txt: the seeded RED queue and the
// T-RACKs switch agent, wiring that the default options never reach.
var optionArms = []struct {
	option, name string
	opts         Options
}{
	{"aqm", "aqm-red", Options{AQM: "red"}},
	{"recovery", "recovery-tracks", Options{Recovery: "tracks"}},
}

func TestRunnerGoldens(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, info := range Runners() {
		t.Run(info.ID, func(t *testing.T) {
			if slowRunners[info.ID] && !*goldenAll {
				t.Skip("renders in over a second; run with -golden.all")
			}
			g := &golden{RunnerInfo: info, file: filepath.Join(goldenDir, info.ID+".txt")}
			if info.ID == "fig8million" {
				// 28 s and 0.5 GB a render, so the baseline is its one arm;
				// packet fidelity is refused at this scale. It renders with
				// the invariant checker off: the hybrid driver's oracle
				// rescans all 10^6 connections after every sweep.
				g.opts.simConfig = &sim.Config{}
			}
			t.Run("baseline", g.baseline)
			if g.want == nil || info.ID == "fig8million" {
				return
			}
			t.Run("procs1", func(t *testing.T) {
				runtime.GOMAXPROCS(1)
				defer runtime.GOMAXPROCS(4)
				g.compare(t, "GOMAXPROCS=1", g.render(t, Options{}, true, false), g.file, g.want)
			})
			t.Run("wheel", func(t *testing.T) {
				g.compare(t, "sim.Config.NoLanes", g.render(t, noLanes(Options{}), true, false), g.file, g.want)
			})
			if g.honors("fidelity") {
				t.Run("hybrid", g.hybrid)
			}
			for _, arm := range optionArms {
				if g.honors(arm.option) {
					t.Run(arm.name, func(t *testing.T) { g.optionArm(t, arm.name, arm.opts) })
				}
			}
			t.Run("cache", g.cache)
		})
	}
}

// golden is one runner under TestRunnerGoldens and its pinned bytes.
type golden struct {
	RunnerInfo
	file string
	want []byte
	opts Options // the baseline's
}

func (g *golden) honors(opt string) bool { return slices.Contains(g.Options, opt) }

// baseline renders at GOMAXPROCS 4 and compares with, or under -update
// rewrites, the golden file.
func (g *golden) baseline(t *testing.T) {
	out := g.render(t, g.opts, true, false)
	if *update {
		writeGolden(t, g.file, out)
	}
	want, err := os.ReadFile(g.file)
	if err != nil {
		t.Fatalf("%s: no golden (go test -run TestRunnerGoldens/%s -args -update): %v", g.ID, g.ID, err)
	}
	g.want = want
	g.compare(t, "baseline", out, g.file, want)
}

// hybrid renders at hybrid fidelity against <id>.hybrid.txt where that
// pins a known divergence, else against the golden itself.
func (g *golden) hybrid(t *testing.T) {
	out := g.render(t, Options{Fidelity: "hybrid"}, true, false)
	file := filepath.Join(goldenDir, g.ID+".hybrid.txt")
	if *update {
		if bytes.Equal(out, g.want) {
			if err := os.Remove(file); err != nil && !errors.Is(err, fs.ErrNotExist) {
				t.Fatal(err)
			}
		} else {
			writeGolden(t, file, out)
		}
	}
	want, err := os.ReadFile(file)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		file, want = g.file, g.want
	case err != nil:
		t.Fatal(err)
	case bytes.Equal(want, g.want):
		t.Fatalf("%s: %s equals %s; the divergence it pins is gone, delete it", g.ID, file, g.file)
	}
	g.compare(t, "fidelity=hybrid", out, file, want)
}

// optionArm renders with opts against, or under -update into,
// <id>.<name>.txt.
func (g *golden) optionArm(t *testing.T, name string, opts Options) {
	out := g.render(t, opts, true, false)
	file := filepath.Join(goldenDir, g.ID+"."+name+".txt")
	if *update {
		writeGolden(t, file, out)
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatalf("%s: no golden for %s (go test -run TestRunnerGoldens/%s -args -update): %v", g.ID, name, g.ID, err)
	}
	g.compare(t, name, out, file, want)
}

// cache renders through a fresh disk store (cold), as whole-run hits
// (storeRuns), and, when the cold run simulated cells, from those cells
// with the run entries deleted: once decoding them from disk, once from
// the memory tier, Progress armed. The cold and whole-run renders are
// never cut: a stored run must hold no host measurement.
func (g *golden) cache(t *testing.T) {
	tables := g.want
	if g.honors("csv") {
		tables = tables[:bytes.LastIndex(tables, []byte("\n\n"))+2]
	}
	dir, cold := storeRuns(t, g.ID,
		func(opts Options) []byte { return g.render(t, opts, false, false) },
		func(arm string, out []byte) { g.compare(t, arm, out, g.file, tables) })
	if cold.Misses() == 0 {
		return
	}
	runs, _ := filepath.Glob(filepath.Join(dir, "*.run"))
	for _, f := range runs {
		if err := os.Remove(f); err != nil {
			t.Fatal(err)
		}
	}
	composed := openStore(t, dir)
	// The first pass stores the run again, so the second calls the runner
	// itself to compose from the memory tier's cells.
	for i, arm := range []string{"cache cells from disk", "cache cells from memory"} {
		out := g.render(t, Options{Cache: composed, Progress: &eventLog{}}, true, i == 1)
		g.compare(t, arm, out, g.file, g.want)
	}
	if composed.Misses() != 0 || composed.Hits() == 0 {
		t.Errorf("%s, cache cells: %d misses, %d hits", g.ID, composed.Misses(), composed.Hits())
	}
}

// render returns what Run prints for the runner, or with direct what the
// runner alone prints, below Run's store of whole runs. With csv set a
// runner that exports CSV writes into a fresh directory and each file's
// SHA-256 follows the output. An uncached fig8million render is cut to
// its table.
func (g *golden) render(t *testing.T, opts Options, csv, direct bool) []byte {
	t.Helper()
	if csv && g.honors("csv") {
		opts.CSVDir = t.TempDir()
	}
	run := Run
	if direct {
		run = func(id string, opts Options, w io.Writer) error { return registry[id].run(opts, w) }
	}
	var buf bytes.Buffer
	if err := run(g.ID, opts, &buf); err != nil {
		t.Fatalf("%s: %v", g.ID, err)
	}
	out := buf.Bytes()
	if opts.Cache == nil && strings.HasPrefix(g.ID, "fig8million") {
		out = tableOnly(out)
	}
	if opts.CSVDir != "" {
		files, _ := filepath.Glob(filepath.Join(opts.CSVDir, "*.csv"))
		for _, f := range files {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			out = fmt.Appendf(out, "%x  %s\n", sha256.Sum256(data), filepath.Base(f))
		}
	}
	return out
}

// tableOnly cuts an uncached fig8million render after its table's closing
// blank line: the resource lines that follow (heap, wall clock) measure
// the host, not the simulation.
func tableOnly(out []byte) []byte {
	if i := bytes.Index(out, []byte("\n\n")); i >= 0 {
		return out[:i+2]
	}
	return out
}

// compare fails the test on the first line got and want differ in,
// naming the runner, the arm, the line and the golden file.
func (g *golden) compare(t *testing.T, arm string, got []byte, file string, want []byte) {
	t.Helper()
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	line := func(lines []string, i int) string {
		if i < len(lines) {
			return fmt.Sprintf("%q", lines[i])
		}
		return "(end of output)"
	}
	i := 0
	for i < len(gl) && i < len(wl) && gl[i] == wl[i] {
		i++
	}
	t.Errorf("%s, %s: line %d differs from %s\n got: %s\nwant: %s", g.ID, arm, i+1, file, line(gl, i), line(wl, i))
}

// TestRunnersRegistered: the golden files and IDs() are one set — a
// runner without a golden fails, and so does a golden without a runner or
// an arm file for an option its runner does not honor.
func TestRunnersRegistered(t *testing.T) {
	files, _ := filepath.Glob(filepath.Join(goldenDir, "*.txt"))
	armOption := map[string]string{"": "", "hybrid": "fidelity"}
	for _, arm := range optionArms {
		armOption[arm.name] = arm.option
	}
	have := map[string]bool{}
	for _, f := range files {
		id, arm, _ := strings.Cut(strings.TrimSuffix(filepath.Base(f), ".txt"), ".")
		option, known := armOption[arm]
		if info, ok := Describe(id); !ok || !known || option != "" && !slices.Contains(info.Options, option) {
			t.Errorf("%s pins no registered runner", f)
		}
		have[id] = have[id] || arm == ""
	}
	for _, id := range IDs() {
		if !have[id] && !*update {
			t.Errorf("runner %s has no golden (go test -run TestRunnerGoldens/%s -args -update)", id, id)
		}
	}
}

func writeGolden(t *testing.T, file string, out []byte) {
	t.Helper()
	if err := os.MkdirAll(goldenDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(file, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// storeRuns renders runner id through a fresh disk store (cold), then as
// a whole-run hit from that store's memory and from a fresh store over
// its directory, handing each render to check. The cold run's cell misses
// are its .cell files and it hits no cell; a run hit publishes no
// Progress event and moves no cell counter. It returns the directory and
// the cold store.
func storeRuns(t *testing.T, id string, render func(Options) []byte, check func(arm string, out []byte)) (string, *cellcache.Store) {
	t.Helper()
	dir := t.TempDir()
	cold := openStore(t, dir)
	check("cache cold", render(Options{Cache: cold}))
	cells, _ := filepath.Glob(filepath.Join(dir, "*.cell"))
	if cold.Misses() != int64(len(cells)) || cold.Hits() != 0 {
		t.Errorf("%s, cache cold: %d misses, %d hits, %d cell files", id, cold.Misses(), cold.Hits(), len(cells))
	}
	for _, hit := range []struct {
		arm   string
		store *cellcache.Store
	}{{"cache run hit from memory", cold}, {"cache run hit", openStore(t, dir)}} {
		misses, log := hit.store.Misses(), &eventLog{}
		check(hit.arm, render(Options{Cache: hit.store, Progress: log}))
		if st := hit.store; st.Runs().Hits != 1 || len(log.events) != 0 || st.Misses() != misses || st.Hits() != 0 {
			t.Errorf("%s, %s: %d run hits, %d Progress events, cell misses %d → %d, %d cell hits",
				id, hit.arm, st.Runs().Hits, len(log.events), misses, st.Misses(), st.Hits())
		}
	}
	return dir, cold
}

func openStore(t *testing.T, dir string) *cellcache.Store {
	t.Helper()
	s, err := cellcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}
