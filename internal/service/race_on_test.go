//go:build race

package service

// raceEnabled reports whether the test binary was built with -race, whose
// runtime allocates on its own account: the heap and allocation pins skip
// then.
const raceEnabled = true
