package experiment

// Cell-grained memoization: every sweep runner decomposes its matrix
// into canonical cell specs and resolves each cell through cachedCell,
// so a warm re-run of a sweep where one axis value changed simulates
// only the affected cells and reassembles the rest byte-identically from
// the store.
//
// What goes into a cell key — and, more importantly, what doesn't:
//
//   - Coordinates and seed: everything that determines the cell's output
//     (protocol, discipline/policy names, concurrency, fault intensity,
//     buffer, reps, fidelity, and the cell's SplitSeed-derived seed).
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
