package experiment

// Cache-correctness proofs for the cell-grained memoization layer beyond
// the byte identity TestRunnerGoldens pins for every runner on a disk
// store: every cached sweep family, at a CI-sized slice, renders the same
// bytes on a memory-only store too; a one-axis change must re-simulate
// only the changed cells; hits never alias; warm runs replay the cold
// run's Progress milestones; and key derivation must be sensitive to
// every option that shapes output (seed, aqm, recovery, fidelity, reps)
// while normalized options (fidelity "" vs explicit "packet") share
// cells. The run kind above the cells gets the same proofs through Run.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"tcptrim/internal/aqm"
	"tcptrim/internal/cellcache"
	"tcptrim/internal/httpapp"
	"tcptrim/internal/metrics"
	"tcptrim/internal/sim"
	"tcptrim/internal/tcp"
)

// cacheRenderers covers every cached sweep family at a CI-sized slice.
var cacheRenderers = []struct {
	name   string
	render func(opts Options) ([]byte, error)
}{
	{"aqmsweep", func(opts Options) ([]byte, error) {
		return tablesOf(RunAQMSweep([]Protocol{ProtoTRIM}, DefaultAQMDisciplines, AQMSweepConcurrency[:1], opts))
	}},
	{"recoverysweep", func(opts Options) ([]byte, error) {
		return tablesOf(RunRecoverySweep(tcp.RecoveryNames(), []string{"droptail"},
			[]FaultIntensity{DefaultFaultIntensities[2]}, []int{aqm.TinyBufferPackets}, opts))
	}},
	{"resilience", func(opts Options) ([]byte, error) {
		return tablesOf(RunResilience([]Protocol{ProtoTRIM}, DefaultFaultIntensities[:2], opts))
	}},
	{"fig4", func(opts Options) ([]byte, error) {
		res, err := RunImpairment(ProtoTCP, opts)
		out, err := tablesOf(res, err)
		if err != nil {
			return nil, err
		}
		// The rendered table omits the traced series; fold their points in
		// so the cached-series round trip is pinned to the float.
		return fmt.Appendf(out, "cwnd=%v goodput=%v total=%v\n",
			res.TracedCwnd.Points(), res.TracedThroughput.Points(), res.TotalThroughput.Points()), nil
	}},
	{"fig5", func(opts Options) ([]byte, error) {
		return tablesOf(RunConcurrency(ProtoTCP, []int{2}, 4, opts))
	}},
	{"fig6", func(opts Options) ([]byte, error) { return tablesOf(RunImpairment(ProtoTRIM, opts)) }},
	{"fig8", fig8Slice},
	{"table1", table1Slice},
}

// TestCacheColdWarmByteIdentity: cache off, cache cold (filling), and
// three warm passes (every cell a hit; the first with a Progress hook
// armed) render the same bytes, on a memory-only store and on a
// disk-backed one re-read by a fresh store the way a new process would.
// A zero warm miss count proves the keys are independent of observation
// and that the warm output came from the store. The sweeps resolve their
// cells from parallel trial workers, so under -race this is also the
// concurrency test of the hit path.
func TestCacheColdWarmByteIdentity(t *testing.T) {
	for _, tc := range cacheRenderers {
		t.Run(tc.name, func(t *testing.T) {
			off, err := tc.render(Options{Seed: 7})
			if err != nil {
				t.Fatalf("cache off: %v", err)
			}
			for _, dir := range []string{"", t.TempDir()} {
				store := openStore(t, dir)
				cold, err := tc.render(Options{Seed: 7, Cache: store})
				if err != nil {
					t.Fatalf("cache cold: %v", err)
				}
				if !bytes.Equal(off, cold) {
					t.Errorf("cold cached run diverges from uncached run:\n-- off --\n%s\n-- cold --\n%s", off, cold)
				}
				if store.Misses() == 0 {
					t.Fatal("cold run hit an empty store — Get was never consulted?")
				}
				if dir != "" {
					store = openStore(t, dir)
				}
				store.ResetStats()
				for pass, opts := range []Options{
					{Seed: 7, Cache: store, Progress: &eventLog{}},
					{Seed: 7, Cache: store},
					{Seed: 7, Cache: store},
				} {
					warm, err := tc.render(opts)
					if err != nil {
						t.Fatalf("warm pass %d (dir %q): %v", pass, dir, err)
					}
					if !bytes.Equal(off, warm) {
						t.Errorf("warm pass %d (dir %q) diverges from uncached run:\n-- off --\n%s\n-- warm --\n%s", pass, dir, off, warm)
					}
				}
				if m := store.Misses(); m != 0 {
					t.Errorf("warm runs re-simulated %d cells (keys depend on Progress?)", m)
				}
				if store.Hits() == 0 {
					t.Error("warm runs recorded no cache hits")
				}
			}
		})
	}
}

// fillDistinct sets every field reachable from v (structs, arrays, and
// scalar leaves) to a distinct non-zero value.
func fillDistinct(v reflect.Value, next *int) {
	*next++
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillDistinct(v.Field(i), next)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fillDistinct(v.Index(i), next)
		}
	case reflect.String:
		v.SetString(fmt.Sprint("s", *next))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(*next))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(*next))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(*next) + 0.1)
	default:
		panic(fmt.Sprintf("fillDistinct: %s field in a cached row", v.Kind()))
	}
}

// hitsArePrivate is the aliasing guard for one cached cell type: whatever
// a caller does to the row compute returned or to a row a hit returned,
// the next hit is pristine — from the memory tier, and from a disk
// re-read with the memory tier off.
func hitsArePrivate[T any](t *testing.T, fresh func() *T, scribble func(*T)) {
	t.Helper()
	want, err := json.Marshal(fresh())
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{"", t.TempDir()} {
		store, err := cellcache.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		spec := struct {
			Family string `json:"family"`
		}{fmt.Sprintf("%T", *fresh())}
		resolve := func(step string, wantComputed bool) *T {
			t.Helper()
			row, computed, err := cachedCell(Options{Cache: store}, spec, func() (*T, error) { return fresh(), nil })
			if err != nil || computed != wantComputed {
				t.Fatalf("%s: computed=%v (want %v) err=%v", step, computed, wantComputed, err)
			}
			if got, _ := json.Marshal(row); !bytes.Equal(got, want) {
				t.Fatalf("%s (dir %q) is not pristine:\n got %s\nwant %s", step, dir, got, want)
			}
			return row
		}
		scribble(resolve("cold", true)) // the runner owns what compute returned
		first := resolve("first hit", false)
		scribble(first)
		if second := resolve("second hit", false); second == first {
			t.Fatalf("two hits returned the same *%T", *first)
		}
		if dir != "" {
			store.SetMemLimit(0)
			scribble(resolve("disk re-read", false))
			resolve("second disk re-read", false)
		}
	}
}

// rowGuard runs hitsArePrivate on a pointer-free row type: every field
// filled, then every field overwritten.
func rowGuard[T any](t *testing.T) {
	t.Run(fmt.Sprintf("%T", *new(T)), func(t *testing.T) {
		hitsArePrivate(t, func() *T {
			row, n := new(T), 0
			fillDistinct(reflect.ValueOf(row).Elem(), &n)
			return row
		}, func(row *T) { *row = *new(T) })
	})
}

// TestCacheHitsNeverAlias covers every pointer-free cell row and the
// impairment snapshot. fillDistinct panics on a pointer, slice or map, so
// a row type that gains one fails here until it is given a guard like the
// impairment snapshot's.
func TestCacheHitsNeverAlias(t *testing.T) {
	rowGuard[AQMSweepRow](t)
	rowGuard[ConcurrencyCell](t)
	rowGuard[FatTreeRow](t)
	rowGuard[LargeScaleRow](t)
	rowGuard[RecoverySweepRow](t)
	rowGuard[ResilienceRow](t)
	rowGuard[BufferRow](t)
	rowGuard[KSweepRow](t)
	rowGuard[ARCTRow](t)
	rowGuard[WebServiceRow](t)
	rowGuard[LossRow](t)
	rowGuard[ScatterRow](t)
	rowGuard[JitterRow](t)
	rowGuard[DeadlineRow](t)
	rowGuard[AlphaRow](t)

	// The impairment snapshot holds pointers RunImpairment hands to its
	// caller: series, per-connection slices, the FCT snapshot.
	t.Run("impairmentSnapshot", func(t *testing.T) {
		series := func(vals ...float64) *metrics.Series {
			s := &metrics.Series{}
			for i, v := range vals {
				s.Record(sim.At(time.Duration(i)*time.Millisecond), v)
			}
			return s
		}
		hitsArePrivate(t, func() *impairmentSnapshot {
			return &impairmentSnapshot{
				Result: &ImpairmentResult{
					Protocol:         ProtoTRIM,
					TimeoutsPerConn:  []int{1, 0, 2},
					TracedThroughput: series(1.5, 2.5),
					TotalThroughput:  series(10, 20, 30),
					TracedCwnd:       series(4, 8),
					CwndAtLPTStart:   []float64{2, 3.5},
					QueueMax:         7,
					LPTCompletion:    []time.Duration{time.Second, 2 * time.Second},
					AllDoneBy:        sim.At(3 * time.Second),
				},
				Retrans: httpapp.RetransBreakdown{Fast: 1, Timeout: 2},
				FCT:     &metrics.Snapshot{Count: 2, Sum: 3, Min: 1, Max: 2, Samples: []float64{1, 2}},
			}
		}, func(snap *impairmentSnapshot) {
			res := snap.Result
			res.TimeoutsPerConn[0] = 99
			res.CwndAtLPTStart = append(res.CwndAtLPTStart[:1], -1)
			res.LPTCompletion[1] = 0
			res.TracedCwnd.Record(sim.At(time.Hour), 1e9)
			res.TotalThroughput.Points()[0].Value = -5
			res.TracedThroughput = nil
			res.QueueMax = 0
			snap.Retrans = httpapp.RetransBreakdown{}
			snap.FCT.Samples[0] = 42
			snap.FCT.Count = 0
		})
	})
}

// TestCellKeySensitivity drives each output-shaping option through a
// runner that honors it: after a cold fill, re-running with the option
// changed must miss (re-simulate), and re-running with an equivalent
// spelling (normalized options) must stay fully warm.
func TestCellKeySensitivity(t *testing.T) {
	resilience := func(opts Options) error {
		_, err := RunResilience([]Protocol{ProtoTRIM}, DefaultFaultIntensities[:1], opts)
		return err
	}
	largescale := func(opts Options) error {
		if opts.Reps == 0 {
			opts.Reps = 1
		}
		_, err := RunLargeScale([]Protocol{ProtoTRIM}, []int{2}, opts)
		return err
	}
	aqmsweep := func(opts Options) error {
		_, err := RunAQMSweep([]Protocol{ProtoTRIM}, DefaultAQMDisciplines[:1],
			AQMSweepConcurrency[:1], opts)
		return err
	}
	cases := []struct {
		name     string
		run      func(Options) error
		base     Options
		changed  Options
		wantMiss bool
	}{
		{"seed", aqmsweep, Options{Seed: 1}, Options{Seed: 2}, true},
		{"aqm", resilience, Options{Seed: 1}, Options{Seed: 1, AQM: "codel"}, true},
		{"recovery", resilience, Options{Seed: 1}, Options{Seed: 1, Recovery: "rack-tlp"}, true},
		{"fidelity", largescale, Options{Seed: 1}, Options{Seed: 1, Fidelity: "hybrid"}, true},
		{"reps", largescale, Options{Seed: 1, Reps: 1}, Options{Seed: 1, Reps: 2}, true},
		// The default fidelity IS packet: an explicit spelling must hit
		// the same cells (the key carries the parsed, normalized name).
		{"fidelity-normalized", largescale, Options{Seed: 1}, Options{Seed: 1, Fidelity: "packet"}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			store := cellcache.NewMemory()
			tc.base.Cache = store
			tc.changed.Cache = store
			if err := tc.run(tc.base); err != nil {
				t.Fatalf("base run: %v", err)
			}
			store.ResetStats()
			if err := tc.run(tc.changed); err != nil {
				t.Fatalf("changed run: %v", err)
			}
			if tc.wantMiss && store.Misses() == 0 {
				t.Errorf("changing %s produced no cache miss — the option is missing from the cell key", tc.name)
			}
			if !tc.wantMiss && store.Misses() != 0 {
				t.Errorf("equivalent option spelling re-simulated %d cells, want full warm hit", store.Misses())
			}
		})
	}
}

// TestAQMSweepPartialWarm is the one-axis-changed acceptance pin: after
// a cold aqmsweep-smoke fill, swapping a single discipline on the axis
// must simulate exactly the new cell, reassemble the other three from
// cache, and render byte-identically to an uncached run of the changed
// axis.
func TestAQMSweepPartialWarm(t *testing.T) {
	render := func(discs []AQMDiscipline, opts Options) []byte {
		t.Helper()
		res, err := RunAQMSweep([]Protocol{ProtoTRIM}, discs, AQMSweepConcurrency[:1], opts)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.WriteTables(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	store := cellcache.NewMemory()
	render(DefaultAQMDisciplines, Options{Seed: 7, Cache: store})
	if got, want := store.Misses(), int64(len(DefaultAQMDisciplines)); got != want {
		t.Fatalf("cold run simulated %d cells, want %d", got, want)
	}

	// Flip one discipline. The axis contract keys cells by discipline
	// name, so the variant needs a distinct name — which any in-tree
	// axis change would have.
	flipped := append([]AQMDiscipline(nil), DefaultAQMDisciplines...)
	flipped[1] = AQMDiscipline{
		Name: "red-noecn",
		Config: func(seed int64) aqm.Config {
			return aqm.Config{Kind: aqm.RED, RED: aqm.REDConfig{Seed: seed}}
		},
	}

	store.ResetStats()
	warm := render(flipped, Options{Seed: 7, Cache: store})
	if store.Misses() != 1 {
		t.Errorf("one-axis-changed warm run simulated %d cells, want exactly the 1 changed cell", store.Misses())
	}
	if got, want := store.Hits(), int64(len(DefaultAQMDisciplines)-1); got != want {
		t.Errorf("warm run reassembled %d cells from cache, want %d", got, want)
	}

	cold := render(flipped, Options{Seed: 7})
	if !bytes.Equal(warm, cold) {
		t.Errorf("partially-warm table diverges from uncached run:\n-- warm --\n%s\n-- cold --\n%s", warm, cold)
	}
}

// eventLog is a Progress hook that retains every event (Publish runs on
// parallel trial workers, hence the lock).
type eventLog struct {
	mu     sync.Mutex
	events []ProgressEvent
}

func (l *eventLog) Publish(ev ProgressEvent) {
	l.mu.Lock()
	l.events = append(l.events, ev)
	l.mu.Unlock()
}

// kind returns the retained events of one kind, in arrival order.
func (l *eventLog) kind(k string) []ProgressEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []ProgressEvent
	for _, ev := range l.events {
		if ev.Kind == k {
			out = append(out, ev)
		}
	}
	return out
}

// TestWarmRunReplaysCellMilestones pins the SSE contract: a warm sweep
// streams the same cell-completion milestones a cold run does (names and
// totals; arrival order is worker-dependent on both paths, so the
// comparison is order-insensitive).
func TestWarmRunReplaysCellMilestones(t *testing.T) {
	run := func(opts Options) *eventLog {
		t.Helper()
		log := &eventLog{}
		opts.Progress = log
		if _, err := RunAQMSweep([]Protocol{ProtoTRIM}, DefaultAQMDisciplines,
			AQMSweepConcurrency[:1], opts); err != nil {
			t.Fatal(err)
		}
		return log
	}
	milestones := func(log *eventLog) []string {
		var out []string
		for _, ev := range log.kind("cell") {
			out = append(out, fmt.Sprintf("%s total=%d", ev.Name, ev.Total))
		}
		sort.Strings(out)
		return out
	}

	store := cellcache.NewMemory()
	cold := milestones(run(Options{Seed: 7, Cache: store}))
	store.ResetStats()
	warm := milestones(run(Options{Seed: 7, Cache: store}))
	if store.Misses() != 0 {
		t.Fatalf("warm run re-simulated %d cells", store.Misses())
	}
	if len(cold) == 0 {
		t.Fatal("cold run published no cell milestones")
	}
	if fmt.Sprint(cold) != fmt.Sprint(warm) {
		t.Errorf("warm milestones differ from cold:\ncold: %v\nwarm: %v", cold, warm)
	}
}

// TestWarmImpairmentReplaysSeries pins the fig4/fig6 replay path: the
// retained series and completion summaries stream identically on warm
// runs, while cold-only samplers (queue depth) are declared absent.
func TestWarmImpairmentReplaysSeries(t *testing.T) {
	run := func(opts Options) *eventLog {
		t.Helper()
		log := &eventLog{}
		opts.Progress = log
		if _, err := RunImpairment(ProtoTRIM, opts); err != nil {
			t.Fatal(err)
		}
		return log
	}
	samplesOf := func(log *eventLog, name string) []string {
		var out []string
		for _, ev := range log.kind("sample") {
			if ev.Name == name {
				out = append(out, fmt.Sprintf("%v@%v", ev.Value, ev.At))
			}
		}
		return out
	}

	store := cellcache.NewMemory()
	cold := run(Options{Seed: 7, Cache: store})
	store.ResetStats()
	warm := run(Options{Seed: 7, Cache: store})
	if store.Misses() != 0 {
		t.Fatalf("warm run re-simulated (%d misses)", store.Misses())
	}
	for _, name := range []string{"traced-goodput-mbps", "total-goodput-mbps", "cwnd-segments"} {
		c, w := samplesOf(cold, name), samplesOf(warm, name)
		if len(c) == 0 {
			t.Fatalf("cold run streamed no %s samples", name)
		}
		if fmt.Sprint(c) != fmt.Sprint(w) {
			t.Errorf("%s replay differs (cold %d samples, warm %d)", name, len(c), len(w))
		}
	}
	if got := samplesOf(warm, "queue-depth-pkts"); len(got) != 0 {
		t.Errorf("warm run synthesized %d queue-depth samples; the result does not retain that series", len(got))
	}
	for _, kind := range []string{"retrans", "fct"} {
		if c, w := len(cold.kind(kind)), len(warm.kind(kind)); c != 1 || w != 1 {
			t.Errorf("%s events: cold %d, warm %d, want 1 and 1", kind, c, w)
		}
	}
}

// runOut runs id through Run and returns what it printed.
func runOut(t *testing.T, id string, opts Options) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Run(id, opts, &buf); err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return buf.Bytes()
}

// runIDs are registered sweep ids cheap enough to run whole in a test.
var runIDs = []string{"resilience-smoke", "recoverysweep-smoke", "aqmsweep-smoke", "fig4"}

// TestRunKindByteIdentity: through Run, each id prints the same bytes with
// the cache off, cold on a fresh store, warm from memory and warm from a
// fresh store over the same directory, with storeRuns' counter checks;
// the cold run simulates at least one cell.
func TestRunKindByteIdentity(t *testing.T) {
	for _, id := range runIDs {
		t.Run(id, func(t *testing.T) {
			off := runOut(t, id, Options{})
			_, cold := storeRuns(t, id,
				func(opts Options) []byte { return runOut(t, id, opts) },
				func(arm string, out []byte) {
					if !bytes.Equal(out, off) {
						t.Errorf("%s differs from the cache-off run:\n%s\n--\n%s", arm, out, off)
					}
				})
			if cold.Misses() == 0 {
				t.Error("the cold run simulated no cell")
			}
		})
	}
}

// TestRunKindCSVDirRuns: with CSVDir set the runner runs and writes its
// CSV files although the whole run is stored, and the files it writes
// from warm cells equal those a cold run wrote.
func TestRunKindCSVDirRuns(t *testing.T) {
	csvs := func(dir string) map[string]string {
		files, _ := filepath.Glob(filepath.Join(dir, "*.csv"))
		out := map[string]string{}
		for _, f := range files {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			out[filepath.Base(f)] = string(data)
		}
		return out
	}
	for _, id := range []string{"fig4", "fig9", "fig10"} {
		t.Run(id, func(t *testing.T) {
			store := cellcache.NewMemory()
			coldDir, warmDir := t.TempDir(), t.TempDir()
			cold := runOut(t, id, Options{Cache: store, CSVDir: coldDir})
			if want := runOut(t, id, Options{Cache: store}); !bytes.Equal(cold, want) {
				t.Error("the run with CSVDir printed other bytes")
			}
			misses := store.Misses()
			if got := runOut(t, id, Options{Cache: store, CSVDir: warmDir}); !bytes.Equal(got, cold) {
				t.Error("the warm run with CSVDir printed other bytes")
			}
			if store.Misses() != misses {
				t.Errorf("the warm run simulated %d cells", store.Misses()-misses)
			}
			if c, w := csvs(coldDir), csvs(warmDir); len(c) == 0 || !reflect.DeepEqual(c, w) {
				t.Errorf("CSV files from warm cells differ from the cold run's: %d cold, %d warm files", len(c), len(w))
			}
			if got := store.Runs(); got.Hits != 0 || got.Held != 1 {
				t.Errorf("Runs() = %+v, want no hit and the one entry held", got)
			}
		})
	}
}

// TestMechanismAblationSharesFig7Cells: concurrency cells are keyed by
// (protocol, LPTs, SPTs, seed) alone, so abl-probe after fig7 simulates
// only its two TRIM variants and takes TCP and TRIM from fig7's cells.
func TestMechanismAblationSharesFig7Cells(t *testing.T) {
	store := cellcache.NewMemory()
	want := runOut(t, "abl-probe", Options{})
	runOut(t, "fig7", Options{Cache: store})
	store.ResetStats()
	if got := runOut(t, "abl-probe", Options{Cache: store}); !bytes.Equal(got, want) {
		t.Errorf("abl-probe on fig7's store:\n%s\nwant:\n%s", got, want)
	}
	if store.Misses() != 2 || store.Hits() != 2 {
		t.Errorf("abl-probe after fig7: %d misses, %d hits; want 2 and 2", store.Misses(), store.Hits())
	}
}

// TestRunKeyFields: every field of the run key changes it — a run with
// one option changed is a whole-run miss — and seed 0 is seed 1.
func TestRunKeyFields(t *testing.T) {
	store := cellcache.NewMemory()
	runOut(t, "fig4", Options{Seed: 1, Cache: store})
	for _, tc := range []struct {
		name string
		id   string
		opts Options
		hit  bool
	}{
		{"seed 0 is seed 1", "fig4", Options{}, true},
		{"runner", "fig6", Options{Seed: 1}, false},
		{"seed", "fig4", Options{Seed: 2}, false},
		{"reps", "fig4", Options{Seed: 1, Reps: 2}, false},
		{"aqm", "fig4", Options{Seed: 1, AQM: "codel"}, false},
		{"recovery", "fig4", Options{Seed: 1, Recovery: "rack-tlp"}, false},
		{"fidelity", "fig4", Options{Seed: 1, Fidelity: "hybrid"}, false},
	} {
		before := store.Runs()
		tc.opts.Cache = store
		runOut(t, tc.id, tc.opts)
		if hit := store.Runs().Hits > before.Hits; hit != tc.hit {
			t.Errorf("%s: whole-run hit = %v, want %v", tc.name, hit, tc.hit)
		}
	}
	// Options are keyed as given, not normalized: the default recovery
	// policy spelled out is another run, which composes from the cells.
	v := cacheCodeVersion()
	if cellcache.Key(runKeyOf("recoverysweep", Options{}), v) ==
		cellcache.Key(runKeyOf("recoverysweep", Options{Recovery: "classic"}), v) {
		t.Error("recoverysweep and recoverysweep -recovery classic share a run key")
	}
}

// TestRunFileRewritten: a truncated, foreign or empty run file is a
// whole-run miss for Run, which prints the right bytes from its cells and
// rewrites the file.
func TestRunFileRewritten(t *testing.T) {
	dir := t.TempDir()
	store, err := cellcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := runOut(t, "resilience-smoke", Options{Cache: store})
	runs, _ := filepath.Glob(filepath.Join(dir, "*.run"))
	if len(runs) != 1 {
		t.Fatalf("%d run files, want 1", len(runs))
	}
	good, err := os.ReadFile(runs[0])
	if err != nil {
		t.Fatal(err)
	}
	for name, content := range map[string][]byte{
		"truncated": good[:len(good)-3],
		"foreign":   []byte("== a table ==\n"),
		"empty":     {},
	} {
		if err := os.WriteFile(runs[0], content, 0o644); err != nil {
			t.Fatal(err)
		}
		fresh, err := cellcache.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if got := runOut(t, "resilience-smoke", Options{Cache: fresh}); !bytes.Equal(got, want) {
			t.Errorf("%s run file: printed other bytes", name)
		}
		if r := fresh.Runs(); r.Hits != 0 || r.Misses != 1 || fresh.Misses() != 0 {
			t.Errorf("%s run file: Runs() = %+v, %d cells simulated", name, r, fresh.Misses())
		}
		if got, _ := os.ReadFile(runs[0]); !bytes.Equal(got, good) {
			t.Errorf("%s run file was not rewritten", name)
		}
	}
}
