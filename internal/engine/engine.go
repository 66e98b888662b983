// Package engine holds the run-wide defaults the study's packages share
// instead of re-defining them: the worker-count default, and the one
// sanctioned wall clock and sleep for the deterministic packages (the
// noadhocclock lint rule forbids bare time.Now and timers there).
package engine

import (
	"context"
	"time"
)

// DefaultWorkers is the run-wide parallelism default. Every component that
// accepts a worker count (study orchestration, image downloads, fused
// assembly walks) resolves 0 to this value through Workers, so the default
// lives in exactly one place.
const DefaultWorkers = 8

// Workers resolves a configured worker count: non-positive means
// DefaultWorkers.
func Workers(n int) int {
	if n <= 0 {
		return DefaultWorkers
	}
	return n
}

// SystemNow is the one sanctioned wall-clock read in the deterministic
// packages (the noadhocclock lint rule forbids bare time.Now there).
func SystemNow() time.Time {
	return time.Now() //lint:allow noadhocclock the clock seam's single real implementation
}

// SleepContext pauses for d or until ctx is done, whichever comes first
// — the sanctioned sleep primitive for deterministic packages (retry
// backoff). It returns ctx's error when the wait was cut short.
func SleepContext(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		default:
			return nil
		}
	}
	t := time.NewTimer(d) //lint:allow noadhocclock the sleep seam's single real implementation
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
