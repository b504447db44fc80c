//go:build race

package sweepsched

// raceEnabled mirrors internal/race.Enabled for tests: under the race
// detector sync.Pool intentionally drops a fraction of Puts, so
// warm-pool allocation bounds cannot hold and are skipped.
const raceEnabled = true
