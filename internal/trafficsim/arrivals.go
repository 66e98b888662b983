package trafficsim

import (
	"fmt"
	"math/rand"
	"time"
)

// Arrivals is an arrival process: successive calls to Next yield a
// non-decreasing schedule of request arrival offsets from the start of a
// run. Implementations are deterministic functions of their constructor
// arguments (rates, phases, a seeded *rand.Rand), never of the wall
// clock, so a schedule can be replayed bit-identically — the property the
// generator unit tests pin and the repolint determinism rules enforce.
type Arrivals interface {
	Next() time.Duration
}

// seconds converts a float64 second offset to a duration.
func seconds(t float64) time.Duration {
	return time.Duration(t * float64(time.Second))
}

// Poisson yields exponentially distributed inter-arrival times at a fixed
// mean rate — the memoryless open-loop baseline (independent clients
// arriving at random).
type Poisson struct {
	rate float64
	rng  *rand.Rand
	t    float64 // seconds since start
}

// NewPoisson builds a Poisson process at ratePerSec off the seeded stream.
func NewPoisson(ratePerSec float64, rng *rand.Rand) (*Poisson, error) {
	if ratePerSec <= 0 {
		return nil, fmt.Errorf("trafficsim: poisson rate must be positive, got %g", ratePerSec)
	}
	if rng == nil {
		return nil, fmt.Errorf("trafficsim: poisson needs a seeded rand stream")
	}
	return &Poisson{rate: ratePerSec, rng: rng}, nil
}

// Next implements Arrivals.
func (p *Poisson) Next() time.Duration {
	p.t += p.rng.ExpFloat64() / p.rate
	return seconds(p.t)
}

// Constant yields perfectly even spacing at a fixed rate — the
// lowest-variance open-loop schedule, useful for isolating server-side
// queueing from arrival burstiness. The first arrival is at offset zero.
type Constant struct {
	rate float64
	n    int64
}

// NewConstant builds a constant-rate process at ratePerSec.
func NewConstant(ratePerSec float64) (*Constant, error) {
	if ratePerSec <= 0 {
		return nil, fmt.Errorf("trafficsim: constant rate must be positive, got %g", ratePerSec)
	}
	return &Constant{rate: ratePerSec}, nil
}

// Next implements Arrivals.
func (c *Constant) Next() time.Duration {
	d := seconds(float64(c.n) / c.rate)
	c.n++
	return d
}

// SquareWave modulates a Poisson process with a square wave: each period
// opens with a burst window (Duty fraction of the period at BurstRate)
// and relaxes to BaseRate for the remainder — the flash-crowd shape of
// image-update traffic, where a freshly pushed tag draws a thundering
// herd and the background trickle continues between waves. Within each
// phase arrivals are Poisson; phase boundaries are handled exactly via
// memorylessness (an inter-arrival crossing a boundary restarts at the
// boundary under the new rate).
type SquareWave struct {
	base, burst float64 // arrivals per second in each phase
	period      float64 // seconds
	duty        float64 // fraction of the period at burst rate, (0, 1)
	rng         *rand.Rand
	t           float64
}

// NewSquareWave builds the modulated process. duty is the burst fraction
// of each period; the burst window opens at the start of the period (the
// run begins mid-herd, hitting caches cold). base may be zero for pure
// burst trains; burst must exceed base.
func NewSquareWave(baseRate, burstRate float64, period time.Duration, duty float64, rng *rand.Rand) (*SquareWave, error) {
	switch {
	case burstRate <= 0 || baseRate < 0:
		return nil, fmt.Errorf("trafficsim: square wave needs burst > 0 and base >= 0 (got base %g, burst %g)", baseRate, burstRate)
	case burstRate <= baseRate:
		return nil, fmt.Errorf("trafficsim: square wave burst rate %g must exceed base rate %g", burstRate, baseRate)
	case period <= 0:
		return nil, fmt.Errorf("trafficsim: square wave period must be positive, got %v", period)
	case duty <= 0 || duty >= 1:
		return nil, fmt.Errorf("trafficsim: square wave duty must be in (0, 1), got %g", duty)
	}
	if rng == nil {
		return nil, fmt.Errorf("trafficsim: square wave needs a seeded rand stream")
	}
	return &SquareWave{
		base:   baseRate,
		burst:  burstRate,
		period: period.Seconds(),
		duty:   duty,
		rng:    rng,
	}, nil
}

// phase returns the rate in force at second offset t and the offset of
// the next phase boundary.
func (s *SquareWave) phase(t float64) (rate, boundary float64) {
	start := float64(int64(t/s.period)) * s.period
	burstEnd := start + s.duty*s.period
	if t < burstEnd {
		return s.burst, burstEnd
	}
	return s.base, start + s.period
}

// Next implements Arrivals.
func (s *SquareWave) Next() time.Duration {
	for {
		rate, boundary := s.phase(s.t)
		if rate <= 0 {
			// Quiet phase with zero base rate: jump to the next burst.
			s.t = boundary
			continue
		}
		dt := s.rng.ExpFloat64() / rate
		if s.t+dt >= boundary {
			// The draw crosses a phase boundary; by memorylessness the
			// process restarts at the boundary under the new rate.
			s.t = boundary
			continue
		}
		s.t += dt
		return seconds(s.t)
	}
}
