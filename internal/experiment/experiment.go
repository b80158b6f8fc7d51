// Package experiment contains one runner per table and figure of the
// paper's evaluation (Section IV), plus the motivation experiments of
// Section II and the ablations DESIGN.md calls out. Each runner builds its
// scenario from the topology/workload/httpapp packages, executes it on the
// deterministic simulator, and returns a result struct that can print the
// same rows/series the paper reports.
package experiment

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"tcptrim/internal/aqm"
	"tcptrim/internal/cc"
	"tcptrim/internal/cellcache"
	"tcptrim/internal/core"
	"tcptrim/internal/hybrid"
	"tcptrim/internal/metrics"
	"tcptrim/internal/tcp"
)

// Protocol names a congestion-control variant under test.
type Protocol string

// The protocols the paper evaluates.
const (
	ProtoTCP   Protocol = "TCP"
	ProtoTRIM  Protocol = "TCP-TRIM"
	ProtoDCTCP Protocol = "DCTCP"
	ProtoL2DCT Protocol = "L2DCT"
	ProtoCUBIC Protocol = "CUBIC"
	ProtoGIP   Protocol = "GIP"

	// Ablation variants of TCP-TRIM.
	ProtoTRIMNoProbe Protocol = "TRIM-noprobe"
	ProtoTRIMNoQueue Protocol = "TRIM-noqueue"
)

// NewCC returns a fresh congestion-control policy for p. TCP-TRIM
// variants take baseRTT as the scenario's known queue-free RTT D (see
// core.Config.BaseRTT; 0 leaves it unknown); the other protocols ignore
// it.
func NewCC(p Protocol, baseRTT time.Duration) (tcp.CongestionControl, error) {
	switch p {
	case ProtoTCP:
		return tcp.NewReno(), nil
	case ProtoTRIM:
		return core.New(core.Config{BaseRTT: baseRTT}), nil
	case ProtoDCTCP:
		return cc.NewDCTCP(), nil
	case ProtoL2DCT:
		return cc.NewL2DCT(), nil
	case ProtoCUBIC:
		return cc.NewCubic(), nil
	case ProtoGIP:
		return cc.NewGIP(), nil
	case ProtoTRIMNoProbe:
		return core.New(core.Config{BaseRTT: baseRTT, DisableProbing: true}), nil
	case ProtoTRIMNoQueue:
		return core.New(core.Config{BaseRTT: baseRTT, DisableQueueControl: true}), nil
	default:
		return nil, fmt.Errorf("experiment: unknown protocol %q", p)
	}
}

// mustCC is NewCC for protocols a runner has already checked.
func mustCC(p Protocol, baseRTT time.Duration) tcp.CongestionControl {
	policy, err := NewCC(p, baseRTT)
	if err != nil {
		// Unreachable for checked protocols; make the bug loud rather
		// than silently running Reno.
		panic(err)
	}
	return policy
}

// UsesECN reports whether the protocol needs ECN-capable transport
// marking.
func UsesECN(p Protocol) bool {
	return p == ProtoDCTCP || p == ProtoL2DCT
}

// Options tunes a run without changing the scenario.
type Options struct {
	// Seed drives every random draw; same seed, same run.
	Seed int64
	// Reps repeats randomized scenarios (Fig. 8's "repeated 100 times");
	// 0 means each experiment's default.
	Reps int
	// CSVDir, when non-empty, makes the runners that honor it (their
	// RunnerInfo.Options list "csv"; trimsim -list prints it) also write
	// their time series as CSV files into this directory for plotting.
	CSVDir string
	// AQM optionally swaps the switch queue discipline in the runners
	// that honor it (RunnerInfo.Options lists "aqm"): a name accepted by
	// aqm.Parse — droptail, red, ared, codel, favour. Empty keeps each
	// scenario's default drop-tail switch, preserving historical outputs
	// byte for byte.
	AQM string
	// Recovery optionally swaps the TCP loss-recovery policy in the
	// runners that honor it (RunnerInfo.Options lists "recovery"): a name
	// accepted by tcp.NewRecoveryPolicy — classic, rack-tlp, tracks.
	// Empty keeps each scenario's default (Classic), preserving
	// historical outputs byte for byte. The tracks policy additionally
	// attaches a T-RACKs agent to the scenario's switch.
	Recovery string
	// Fidelity selects the connection simulation mode in the runners
	// that honor it (RunnerInfo.Options lists "fidelity"): a name
	// accepted by hybrid.ParseFidelity — packet (default) or hybrid.
	// Hybrid folds idle connections into a compact flow store and
	// simulates packets only for connections with an active train; the
	// differential tests pin that small-scale outputs stay byte-identical
	// across fidelities.
	Fidelity string
	// Cache optionally memoizes individual sweep cells in a
	// content-addressed store. Every matrix runner (all but fig1/fig2 and
	// fig8million; fig4/fig6 are one cell each) keys each cell by its
	// machine-independent value (family, coordinates, seed) plus the code
	// version, and answers warm cells from the store without simulating;
	// Run keeps whole runs there too (see Run). Results are byte-identical
	// with the cache off, cold, or warm: cells are pure functions of their
	// spec, and JSON round-trips every row exactly. nil disables
	// memoization.
	Cache *cellcache.Store
	// Progress optionally receives live observability events (samples,
	// completed responses, finished cells — see ProgressEvent) while the
	// run simulates. Hooks fire only from code paths that execute
	// anyway, so arming one never changes results: the same spec still
	// produces byte-identical output. Publish is called from worker
	// goroutines; implementations must be concurrency-safe.
	Progress Progress
	// Context optionally bounds the run. Matrix runners poll it between
	// cells, and a cell that runs through simEnv polls it every runSlice
	// of simulated time; either way the run aborts with the context's
	// error. The service uses it to cancel in-flight jobs. nil means run
	// to completion.
	Context context.Context
	// envs lends newSimEnv the environments of finished cells to clear
	// and reuse (see envList). Run sets it when no stored run answers;
	// it shapes no output, so no key holds it and Validate ignores it.
	envs *envList
}

// fidelity resolves the Fidelity option (empty → packet).
func (o Options) fidelity() (hybrid.Fidelity, error) {
	return hybrid.ParseFidelity(o.Fidelity)
}

// aqmOverride resolves the AQM option; ok is false when the option is
// unset and the scenario default should stand.
func (o Options) aqmOverride() (cfg aqm.Config, ok bool, err error) {
	if o.AQM == "" {
		return aqm.Config{}, false, nil
	}
	cfg, err = aqm.Parse(o.AQM)
	return cfg, err == nil, err
}

// recoveryOverride resolves the Recovery option to a canonical policy
// name; ok is false when the option is unset and the scenario default
// (Classic) should stand.
func (o Options) recoveryOverride() (name string, ok bool, err error) {
	if o.Recovery == "" {
		return "", false, nil
	}
	p, err := tcp.NewRecoveryPolicy(o.Recovery)
	if err != nil {
		return "", false, err
	}
	return p.Name(), true, nil
}

// mustRecovery builds a fresh recovery policy for a name that has already
// been validated (by recoveryOverride or a runner's own axis constants).
func mustRecovery(name string) tcp.RecoveryPolicy {
	p, err := tcp.NewRecoveryPolicy(name)
	if err != nil {
		panic(err)
	}
	return p
}

// saveSeriesCSV writes a series into opts.CSVDir when exporting is
// enabled; it is a no-op otherwise.
func saveSeriesCSV(opts Options, name, valueName string, s *metrics.Series) error {
	if opts.CSVDir == "" || s == nil {
		return nil
	}
	f, err := os.Create(filepath.Join(opts.CSVDir, name+".csv"))
	if err != nil {
		return fmt.Errorf("csv export: %w", err)
	}
	defer f.Close()
	if err := s.WriteCSV(f, valueName); err != nil {
		return fmt.Errorf("csv export %s: %w", name, err)
	}
	return nil
}

func (o Options) seed() int64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

func (o Options) reps(def int) int {
	if o.Reps <= 0 {
		return def
	}
	return o.Reps
}

// Table is a simple printable grid used by every result type.
type Table struct {
	Title   string
	Header  []string
	Rows    [][]string
	Caption string
}

// Write renders the table in aligned plain text: every line is built in
// one reused buffer and written with a single w.Write.
func (t *Table) Write(w io.Writer) error {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	lineLen := 2 * len(widths) // separators and the newline
	for _, width := range widths {
		lineLen += width
	}
	line := make([]byte, 0, max(lineLen, len(t.Title)+7, len(t.Caption)+4))
	if t.Title != "" {
		line = append(append(append(line, "== "...), t.Title...), " ==\n"...)
		if _, err := w.Write(line); err != nil {
			return err
		}
	}
	writeRow := func(cells []string) error {
		if len(cells) == 0 {
			return nil
		}
		line = line[:0]
		for i, cell := range cells {
			line = append(line, cell...)
			if i < len(widths) {
				for pad := widths[i] - len(cell); pad > 0; pad-- {
					line = append(line, ' ')
				}
			}
			if i < len(cells)-1 {
				line = append(line, "  "...)
			}
		}
		line = append(line, '\n')
		_, err := w.Write(line)
		return err
	}
	if err := writeRow(t.Header); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	if t.Caption != "" {
		line = append(append(append(line[:0], "-- "...), t.Caption...), '\n')
		if _, err := w.Write(line); err != nil {
			return err
		}
	}
	_, err := w.Write(append(line[:0], '\n'))
	return err
}

// Runner executes one registered experiment and writes its tables.
type Runner func(opts Options, w io.Writer) error

// tables is the Runner that writes the tables of what run returns.
func tables[R interface{ WriteTables(io.Writer) error }](run func(Options) (R, error)) Runner {
	return func(opts Options, w io.Writer) error {
		res, err := run(opts)
		if err != nil {
			return err
		}
		return res.WriteTables(w)
	}
}

// RunnerInfo describes one registered experiment: what it reproduces
// and which Options fields it honors. trimsim -list and the service's
// GET /v1/runners both render from it, so the CLI and the API can never
// drift apart.
type RunnerInfo struct {
	ID          string `json:"id"`
	Description string `json:"description"`
	// Options lists the Options fields beyond Seed (which every runner
	// honors) that this runner consumes: "reps", "csv", "aqm",
	// "recovery", "fidelity".
	Options []string `json:"options,omitempty"`
}

// registryEntry pairs a runner with its metadata.
type registryEntry struct {
	info RunnerInfo
	run  Runner
}

// registry maps experiment ids to runners; ids follow DESIGN.md.
var registry = map[string]registryEntry{}

// Register adds a runner to the registry. Figure/table runners register
// themselves at init; external callers (service tests registering
// controllable fakes, downstream tools adding scenarios) may add more.
// Duplicate ids are an error — a silently shadowed figure would be a
// reproduction bug.
func Register(info RunnerInfo, r Runner) error {
	if info.ID == "" {
		return fmt.Errorf("experiment: register: empty id")
	}
	if r == nil {
		return fmt.Errorf("experiment: register %q: nil runner", info.ID)
	}
	if _, dup := registry[info.ID]; dup {
		return fmt.Errorf("experiment: register %q: already registered", info.ID)
	}
	registry[info.ID] = registryEntry{info: info, run: r}
	return nil
}

// register is called from each experiment file's top-level declarations
// (a registry is one of the sanctioned uses of initialization-time side
// effects: deterministic, no I/O). honors lists the Options fields
// beyond Seed the runner consumes; a clash panics at init.
func register(id, desc string, honors []string, r Runner) bool {
	if err := Register(RunnerInfo{ID: id, Description: desc, Options: honors}, r); err != nil {
		panic(err)
	}
	return true
}

// IDs returns the registered experiment ids, sorted.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Runners returns every registered experiment's metadata, sorted by id.
func Runners() []RunnerInfo {
	out := make([]RunnerInfo, 0, len(registry))
	for _, id := range IDs() {
		out = append(out, registry[id].info)
	}
	return out
}

// Describe returns the metadata for one experiment id.
func Describe(id string) (RunnerInfo, bool) {
	e, ok := registry[id]
	return e.info, ok
}

// Run executes the experiment with the given id. Options are validated
// first (see Validate), so every entry point — CLI, service, tests —
// rejects a malformed spec before any simulation starts. With a Cache and
// no CSVDir a run already stored is written as it is, with no Progress
// events, and a new one is stored once it completes.
func Run(id string, opts Options, w io.Writer) error {
	e, ok := registry[id]
	if !ok {
		return fmt.Errorf("experiment: unknown id %q (known: %v)", id, IDs())
	}
	if err := opts.Validate(); err != nil {
		return err
	}
	if out, ok := StoredRun(id, opts); ok {
		_, err := w.Write(out)
		return err
	}
	opts.envs = new(envList)
	if opts.Cache == nil || opts.CSVDir != "" {
		return e.run(opts, w)
	}
	// A failed run's partial output is written but not stored; a failed
	// store write costs only a future re-run.
	var buf bytes.Buffer
	err := e.run(opts, &buf)
	if err == nil {
		_ = opts.Cache.PutRun(runKeyOf(id, opts), cacheCodeVersion(), buf.Bytes())
	}
	if _, werr := w.Write(buf.Bytes()); err == nil {
		err = werr
	}
	return err
}
