// Package service is the long-running experiment control plane: a REST
// API over the experiment registry (submit runs, watch them live over
// SSE, fetch byte-exact results) with a content-addressed result cache.
//
// The cache is sound because the simulator underneath is deterministic:
// the same RunSpec at the same code version produces byte-identical output
// on every machine, with or without a Progress hook armed. A result keyed
// by (canonical spec, code version) can therefore be replayed forever
// without re-simulating.
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"tcptrim/internal/cellcache"
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

// canonical returns the spec's canonical encoding: JSON with fields in
// struct order and zero values omitted, so two specs that mean the same
// run encode identically.
func (s RunSpec) canonical() []byte {
	b, err := json.Marshal(s)
	if err != nil {
		// A struct of scalars cannot fail to marshal.
		panic(err)
	}
	return b
}

// Key returns the content address of the spec's result: a hex SHA-256
// over the canonical spec and the code version. Any code change rolls
// the version and so invalidates every cached result.
func (s RunSpec) Key(codeVersion string) string {
	h := sha256.New()
	h.Write(s.canonical())
	h.Write([]byte{0})
	h.Write([]byte(codeVersion))
	return hex.EncodeToString(h.Sum(nil))
}

// CodeVersion identifies the running simulator build for cache keying.
// It is cellcache.CodeVersion: the run-level cache and the cell store
// must agree on the version or a warm run could mix results from
// different builds.
func CodeVersion() string {
	return cellcache.CodeVersion()
}
