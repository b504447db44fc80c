//go:build race

package faults

// raceEnabled mirrors internal/race.Enabled for tests: under the race
// detector sync.Pool intentionally drops a fraction of Puts, so
// warm-pool zero-allocation contracts cannot hold and are skipped.
const raceEnabled = true
