package sim

import "math/rand"

// NewRand returns a deterministic random source for the given seed.
// Simulation components must never use the global rand functions; every
// experiment threads one or more seeded *rand.Rand values so that runs are
// reproducible. The experiment runners take theirs from their simulation
// environment, which re-seeds the sources of a finished cell (Seed gives
// the stream NewRand would); the facade, the conformance harness and the
// tests call NewRand.
func NewRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed)) //nolint:gosec // simulation, not crypto
}
