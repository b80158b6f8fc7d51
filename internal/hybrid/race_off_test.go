//go:build !race

package hybrid

const raceEnabled = false
