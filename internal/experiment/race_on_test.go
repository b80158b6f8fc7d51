//go:build race

package experiment

// raceEnabled reports whether the test binary was built with -race, whose
// runtime allocates on its own account: the allocation pins skip then.
const raceEnabled = true
