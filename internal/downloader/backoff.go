package downloader

import "time"

// The retry backoff: jittered exponential delays from backoffBase,
// doubling per attempt up to backoffMax, each scaled uniformly down by up
// to backoffJitter to decorrelate clients that fail in lockstep. A crawl
// that hammers a throttling registry in a tight loop only makes the
// throttling worse, so retries spread out instead.
const (
	backoffBase   = 50 * time.Millisecond
	backoffMax    = 5 * time.Second
	backoffJitter = 0.5
)

// backoffDelay returns the pause before retry `attempt` (1-based). rnd
// supplies uniform randomness in [0, 1): a seeded stream (the Downloader
// derives one from its Seed), so no caller ever touches the
// process-global RNG.
func backoffDelay(attempt int, rnd func() float64) time.Duration {
	d := backoffBase
	for i := 1; i < attempt && d < backoffMax; i++ {
		d *= 2
	}
	d = min(d, backoffMax)
	// Uniform in [(1-jitter)·d, d].
	return time.Duration(float64(d) * (1 - backoffJitter*rnd()))
}
