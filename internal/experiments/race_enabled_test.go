//go:build race

package experiments

// raceEnabled reports that this test binary was built with the race
// detector, so allocation-count gates (which sync.Pool breaks by
// design under -race) know to skip themselves.
const raceEnabled = true
