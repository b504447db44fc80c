//go:build !race

package sweepsched

const raceEnabled = false
