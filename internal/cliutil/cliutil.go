// Package cliutil holds the flag validation shared by the repo's
// commands (sweepsim, sweepbench, sweepschedd). The
// commands exit non-zero with these messages instead of silently
// coercing nonsense values — a negative -verify-every used to be
// absorbed by the ≤1 "audit every run" fallback, which reads as "off"
// but is actually "always on".
package cliutil

import (
	"fmt"
	"strconv"
	"strings"
)

// ValidateVerifyEvery rejects negative sweepschedd -verify-every
// values. 0 and 1 both mean "audit every run" (the documented
// behavior); N > 1 samples every Nth run.
func ValidateVerifyEvery(n int) error {
	if n < 0 {
		return fmt.Errorf("-verify-every must be >= 0 (0 or 1 audits every run, N > 1 samples), got %d", n)
	}
	return nil
}

// ValidateAnglesets rejects explicit -anglesets values < 1: the flag's
// absence means "per-direction pipeline", so an explicit 0 or negative
// is a contradiction, not a disable switch (omit the flag to disable).
func ValidateAnglesets(n int) error {
	if n < 1 {
		return fmt.Errorf("-anglesets must be >= 1 when given (omit the flag for the per-direction pipeline), got %d", n)
	}
	return nil
}

// ValidateNonNegative rejects negative values for flags where zero
// selects a default.
func ValidateNonNegative(flag string, n int) error {
	if n < 0 {
		return fmt.Errorf("%s must be >= 0, got %d", flag, n)
	}
	return nil
}

// ParseSpeeds parses a comma-separated per-processor speeds pattern
// ("1,2,4"). The pattern is cycled over the machine by the caller, so
// its length need not match m. Empty means the uniform machine (nil).
func ParseSpeeds(spec string) ([]int32, error) {
	if spec == "" {
		return nil, nil
	}
	parts := strings.Split(spec, ",")
	out := make([]int32, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 32)
		if err != nil {
			return nil, fmt.Errorf("-speeds: entry %d (%q) is not an integer", i, p)
		}
		if v < 1 {
			return nil, fmt.Errorf("-speeds: entry %d must be >= 1, got %d", i, v)
		}
		out[i] = int32(v)
	}
	return out, nil
}
