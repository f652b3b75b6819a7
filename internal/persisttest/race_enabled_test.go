//go:build race

package persisttest

// raceEnabled reports that this test binary was built with the race
// detector, so allocation gates that sync.Pool breaks by design under
// -race know to skip themselves.
const raceEnabled = true
