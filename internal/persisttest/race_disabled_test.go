//go:build !race

package persisttest

// raceEnabled reports whether this test binary was built with the race
// detector; see race_enabled_test.go.
const raceEnabled = false
