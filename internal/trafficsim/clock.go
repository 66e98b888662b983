// Package trafficsim is the repo's one load engine, open-loop first:
// requests are dispatched on a pre-committed Poisson arrival schedule
// instead of waiting for the previous response, so queueing delay under
// overload is measured rather than silently absorbed — the
// coordinated-omission correction a closed-loop generator cannot make.
// (Closed loop is kept as the one other dispatch mode, for comparison and
// for "how fast can N clients go".) Per-request latency is recorded from
// the *intended* start time to completion into a mergeable log-bucketed
// histogram (internal/stats), and declared SLOs (p99 ≤ target, bounded
// error rate) turn each run into a pass/fail verdict; a bisection search
// finds the maximum sustainable throughput under an SLO.
//
// The paper's dataset-scale findings motivate the scenario set: Zipf
// popularity skew makes pull storms against a sharded cluster the
// interesting serving case (§IV-B), and bursty image updates (PAPERS.md,
// Revisiting Dockerfiles over Time) make the flash crowd on a freshly
// pushed tag the canonical stress on the mirror tier.
package trafficsim

import (
	"context"
	"sync"
	"time"

	"repro/internal/engine"
)

// Clock is the time seam every trafficsim component schedules and measures
// through: the engine sleeps to arrival times on it, throttled readers
// pace on it, and all latency attribution reads it. Production uses
// SystemClock (the engine package's sanctioned wall-clock seam);
// deterministic tests inject a virtual clock.
type Clock interface {
	Now() time.Time
	// Sleep pauses for d or until ctx is done, returning ctx's error when
	// cut short.
	Sleep(ctx context.Context, d time.Duration) error
}

// sysClock is the production clock, delegating to the engine seam so the
// noadhocclock invariant (no bare time.Now/Sleep in deterministic
// packages) holds here too.
type sysClock struct{}

func (sysClock) Now() time.Time { return engine.SystemNow() }
func (sysClock) Sleep(ctx context.Context, d time.Duration) error {
	return engine.SleepContext(ctx, d)
}

// SystemClock is the real wall clock.
var SystemClock Clock = sysClock{}

// VirtualClock is a deterministic test clock: Sleep advances virtual time
// immediately instead of blocking, so schedule-driven code runs at full
// speed while observing a consistent timeline. Safe for concurrent use.
type VirtualClock struct {
	mu  sync.Mutex
	now time.Time
}

// NewVirtualClock starts a virtual clock at the given instant.
func NewVirtualClock(start time.Time) *VirtualClock {
	return &VirtualClock{now: start}
}

// Now returns the current virtual time.
func (c *VirtualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Sleep advances virtual time by d without blocking (honouring an
// already-cancelled ctx).
func (c *VirtualClock) Sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if d > 0 {
		c.mu.Lock()
		c.now = c.now.Add(d)
		c.mu.Unlock()
	}
	return nil
}
