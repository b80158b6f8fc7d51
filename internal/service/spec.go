// Package service is the long-running experiment control plane: a REST
// API over the experiment registry (submit runs, watch them live over
// SSE, fetch byte-exact results) over one content-addressed store.
//
// The store is the cellcache.Store trimsim -cache uses. Because the
// simulator underneath is deterministic, the same RunSpec at the same
// code version produces byte-identical output on every machine, with or
// without a Progress hook armed, so experiment.Run keeps each finished
// run there whole and a repeated spec is answered without re-simulating.
package service

import (
	"fmt"

	"tcptrim/internal/experiment"
)

// RunSpec is the client-facing description of one experiment run. It
// mirrors the experiment.Options surface minus the server-side knobs
// (CSVDir writes server-local files; Progress and Context belong to the
// service, not the spec). Zero values mean the scenario defaults, same
// as the trimsim flags.
type RunSpec struct {
	// Runner is the registry id (see GET /v1/runners or trimsim -list).
	Runner string `json:"runner"`
	// Seed drives every random draw (0 = default seed 1).
	Seed int64 `json:"seed,omitempty"`
	// Reps repeats randomized scenarios (0 = runner default).
	Reps int `json:"reps,omitempty"`
	// AQM / Recovery / Fidelity name overrides, as in trimsim flags.
	AQM      string `json:"aqm,omitempty"`
	Recovery string `json:"recovery,omitempty"`
	Fidelity string `json:"fidelity,omitempty"`
}

// Options converts the spec to runner options. Progress and Context are
// attached by the job runner, not the spec.
func (s RunSpec) Options() experiment.Options {
	return experiment.Options{
		Seed:     s.Seed,
		Reps:     s.Reps,
		AQM:      s.AQM,
		Recovery: s.Recovery,
		Fidelity: s.Fidelity,
	}
}

// Validate rejects a malformed spec before it is queued: the runner must
// exist and the option surface must pass the same experiment.Options
// gate trimsim uses.
func (s RunSpec) Validate() error {
	if s.Runner == "" {
		return fmt.Errorf("service: spec has no runner (see GET /v1/runners)")
	}
	if _, ok := experiment.Describe(s.Runner); !ok {
		return fmt.Errorf("service: unknown runner %q (see GET /v1/runners)", s.Runner)
	}
	return s.Options().Validate()
}
