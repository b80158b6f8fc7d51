package experiment

// Cell-grained memoization: every matrix runner hands its cells to sweep,
// which resolves each through cachedCell (fig4/fig6 call it for their one
// cell; fig8million stores none), so a warm re-run where one axis value
// changed simulates only the affected cells.
//
// What goes into a cell key — the cell value itself, beside its family —
// and, more importantly, what doesn't:
//
//   - Coordinates and seed: everything that determines the cell's output
//     (protocol, discipline/policy names, concurrency, fault intensity,
//     buffer, reps, fidelity, and the cell's seed).
//   - NOT worker counts or Progress: the SplitSeed design makes results
//     worker-independent, and Progress hooks only observe code paths
//     that already execute. Normalizing these out of the key is what
//     makes the cache shareable across machines.
//   - NOT CSVDir: it changes which files are written, never the result.
//   - The code version (stamped VCS revision, or "dev"): any code change
//     invalidates every cell.
//
// Axis values carrying behavior (AQMDiscipline.Config funcs, custom
// FaultIntensity ladders) are identified in the spec by their exported
// fields and names; callers extending an axis must give new behavior a
// new name, the same contract the rendered tables already rely on.
//
// Above the cells, Run keeps each whole run's output in the same store
// under a runKey, so a repeated run is one lookup (see StoredRun).

import (
	"sync"

	"tcptrim/internal/cellcache"
)

// cacheCodeVersion memoizes the build's code version: reading build info
// is not free and every cell key needs it.
var cacheCodeVersion = sync.OnceValue(cellcache.CodeVersion)

// cachedCell resolves one cell through opts.Cache (see cellcache.Cell): a
// hit returns the stored row as a fresh T, a miss runs compute and stores
// its result. With no store armed it is exactly compute. The bool reports
// whether the cell was computed (false = answered from cache), so callers
// can synthesize the replay events a cold run would have streamed.
func cachedCell[T any](opts Options, spec any, compute func() (*T, error)) (*T, bool, error) {
	if opts.Cache == nil {
		out, err := compute()
		return out, true, err
	}
	return cellcache.Cell(opts.Cache, spec, cacheCodeVersion(), compute)
}

// runKey is what a whole run's output is stored under, besides the code
// version: the runner and every Options field that shapes what it prints.
// Seed 0 means seed 1, as it does to every runner.
type runKey struct {
	Runner   string `json:"runner"`
	Seed     int64  `json:"seed"`
	Reps     int    `json:"reps,omitempty"`
	AQM      string `json:"aqm,omitempty"`
	Recovery string `json:"recovery,omitempty"`
	Fidelity string `json:"fidelity,omitempty"`
}

func runKeyOf(id string, opts Options) runKey {
	return runKey{id, opts.seed(), opts.Reps, opts.AQM, opts.Recovery, opts.Fidelity}
}

// StoredRun returns exactly what Run would write for id and opts when
// opts.Cache holds the whole run, without running anything. With CSVDir
// set there is never a stored run: only the runner writes CSV files.
// Callers must not modify the returned slice.
func StoredRun(id string, opts Options) ([]byte, bool) {
	if opts.Cache == nil || opts.CSVDir != "" {
		return nil, false
	}
	return opts.Cache.GetRun(runKeyOf(id, opts), cacheCodeVersion())
}
