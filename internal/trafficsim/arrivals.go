package trafficsim

import (
	"fmt"
	"math/rand"
	"time"
)

// Arrivals is an arrival process: successive calls to Next yield a
// non-decreasing schedule of request arrival offsets from the start of a
// run. Implementations are deterministic functions of their constructor
// arguments (a rate, a seeded *rand.Rand), never of the wall clock, so a
// schedule can be replayed bit-identically — the property the generator
// unit tests pin and the repolint determinism rules enforce.
type Arrivals interface {
	Next() time.Duration
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
	return time.Duration(p.t * float64(time.Second))
}
