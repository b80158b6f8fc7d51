package main

import (
	"fmt"
	"math"
	"os"
)

// tracedRun re-runs the workload recording spans, re-runs it without to
// price the tracing, runs the layer drivers and writes the spans out. It
// returns the per-layer metrics and the traced iterations' samples.
func tracedRun(w workloadDef, cfg runConfig, outDir string) (map[string]metricValue, samples, error) {
	cfg.tr = newTracer()
	traced, err := runIterations(w, cfg, tracedIterations)
	if err != nil {
		return nil, traced, err
	}
	plain := cfg
	plain.tr = nil
	untraced, err := runIterations(w, plain, tracedIterations)
	if err != nil {
		return nil, traced, err
	}

	values := map[string]float64{
		"trace.overhead_pct": 100 * (sumOfFastest(traced.wall) - sumOfFastest(untraced.wall)) / sumOfFastest(untraced.wall),
	}
	err = withProcs(1, func() error {
		for _, drv := range layerDrivers {
			if err := drv.run(cfg, values); err != nil {
				return fmt.Errorf("%s driver: %w", drv.layer, err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, traced, err
	}

	path, err := cfg.tr.write(outDir, fmt.Sprintf("spans-%s-seed%d.json", w.name, cfg.seed))
	if err != nil {
		return nil, traced, err
	}
	fmt.Fprintf(os.Stderr, "bench: %d spans written to %s\n", len(cfg.tr.spans), path)

	out := map[string]metricValue{}
	for _, m := range perLayer {
		// A time, size or count is never negative and never astronomic
		// (a wrapped unsigned difference is ~1e19); only a percentage,
		// being a difference against a base, may fall below zero.
		v, ok := values[m.Name]
		if !ok || math.IsNaN(v) || math.Abs(v) > 1e12 || (v < 0 && m.Unit != "%") {
			return nil, traced, fmt.Errorf("layer metric %s: no plausible value (%v %s)", m.Name, v, m.Unit)
		}
		out[m.Name] = metricValue{v, m.Unit}
	}
	if len(values) != len(perLayer) {
		return nil, traced, fmt.Errorf("drivers produced %d metrics, the manifest lists %d", len(values), len(perLayer))
	}
	return out, traced, nil
}
