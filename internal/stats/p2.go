package stats

import (
	"fmt"
	"sort"
)

// P2Quantile estimates a single quantile in O(1) memory with the P²
// algorithm (Jain & Chlamtac, 1985). At paper scale the dataset has 5.3 B
// file sizes — storing them for an exact CDF is impossible, so streaming
// stages use P² markers and the exact CDF is reserved for per-layer and
// per-image populations.
type P2Quantile struct {
	p       float64
	n       int
	q       [5]float64 // marker heights
	npos    [5]float64 // actual marker positions
	desired [5]float64
	dn      [5]float64
	initBuf []float64
}

// NewP2Quantile returns an estimator for the q-quantile (0 < q < 1).
func NewP2Quantile(q float64) *P2Quantile {
	if q <= 0 || q >= 1 {
		panic(fmt.Sprintf("stats: NewP2Quantile(%v) requires 0 < q < 1", q))
	}
	return &P2Quantile{
		p:  q,
		dn: [5]float64{0, q / 2, q, (1 + q) / 2, 1},
	}
}

// Add feeds one observation.
func (e *P2Quantile) Add(x float64) {
	e.n++
	if e.n <= 5 {
		e.initBuf = append(e.initBuf, x)
		if e.n == 5 {
			sort.Float64s(e.initBuf)
			for i := 0; i < 5; i++ {
				e.q[i] = e.initBuf[i]
				e.npos[i] = float64(i + 1)
			}
			e.desired = [5]float64{1, 1 + 2*e.p, 1 + 4*e.p, 3 + 2*e.p, 5}
			e.initBuf = nil
		}
		return
	}

	// Locate the cell and update extremes.
	var k int
	switch {
	case x < e.q[0]:
		e.q[0] = x
		k = 0
	case x >= e.q[4]:
		e.q[4] = x
		k = 3
	default:
		k = 0
		for i := 1; i <= 3; i++ {
			if x >= e.q[i] {
				k = i
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		e.npos[i]++
	}
	for i := 0; i < 5; i++ {
		e.desired[i] += e.dn[i]
	}

	// Adjust interior markers.
	for i := 1; i <= 3; i++ {
		d := e.desired[i] - e.npos[i]
		if (d >= 1 && e.npos[i+1]-e.npos[i] > 1) || (d <= -1 && e.npos[i-1]-e.npos[i] < -1) {
			sign := 1.0
			if d < 0 {
				sign = -1.0
			}
			cand := e.parabolic(i, sign)
			if e.q[i-1] < cand && cand < e.q[i+1] {
				e.q[i] = cand
			} else {
				e.q[i] = e.linear(i, sign)
			}
			e.npos[i] += sign
		}
	}
}

func (e *P2Quantile) parabolic(i int, d float64) float64 {
	return e.q[i] + d/(e.npos[i+1]-e.npos[i-1])*
		((e.npos[i]-e.npos[i-1]+d)*(e.q[i+1]-e.q[i])/(e.npos[i+1]-e.npos[i])+
			(e.npos[i+1]-e.npos[i]-d)*(e.q[i]-e.q[i-1])/(e.npos[i]-e.npos[i-1]))
}

func (e *P2Quantile) linear(i int, d float64) float64 {
	j := i + int(d)
	return e.q[i] + d*(e.q[j]-e.q[i])/(e.npos[j]-e.npos[i])
}

// N returns the number of observations.
func (e *P2Quantile) N() int { return e.n }

// Value returns the current quantile estimate. With fewer than 5
// observations it falls back to the exact nearest-rank value.
func (e *P2Quantile) Value() float64 {
	if e.n == 0 {
		return 0
	}
	if e.n < 5 {
		buf := append([]float64(nil), e.initBuf...)
		sort.Float64s(buf)
		rank := int(e.p*float64(len(buf))+0.999999) - 1
		if rank < 0 {
			rank = 0
		}
		if rank >= len(buf) {
			rank = len(buf) - 1
		}
		return buf[rank]
	}
	return e.q[2]
}

// P2Digest tracks a fixed set of quantiles plus min/max in O(1) memory —
// the streaming companion to CDF for populations too large to store.
type P2Digest struct {
	qs   []float64
	ests []*P2Quantile
	sum  Summary
}

// NewP2Digest returns a digest tracking the given quantiles.
func NewP2Digest(quantiles ...float64) *P2Digest {
	d := &P2Digest{qs: quantiles}
	for _, q := range quantiles {
		d.ests = append(d.ests, NewP2Quantile(q))
	}
	return d
}

// Add feeds one observation to every tracked quantile.
func (d *P2Digest) Add(x float64) {
	for _, e := range d.ests {
		e.Add(x)
	}
	d.sum.Add(x)
}

// Quantile returns the estimate for one of the tracked quantiles; it
// panics if q was not requested at construction (a programming error).
func (d *P2Digest) Quantile(q float64) float64 {
	for i, have := range d.qs {
		if have == q {
			return d.ests[i].Value()
		}
	}
	panic(fmt.Sprintf("stats: quantile %v not tracked by this digest", q))
}

// Summary exposes the exact count/sum/min/max/moments.
func (d *P2Digest) Summary() *Summary { return &d.sum }
