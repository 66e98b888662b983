// Package dist provides seeded, deterministic samplers for the statistical
// distributions used to calibrate the synthetic Docker Hub dataset:
// log-normal bodies, Zipf/power-law tails, discrete point-mass mixtures, and
// weighted categorical choice.
//
// Every sampler draws from an explicit *rand.Rand so dataset generation is
// reproducible from a single seed; no sampler touches global randomness.
package dist

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Sampler produces float64 samples.
type Sampler interface {
	Sample(rng *rand.Rand) float64
}

// LogNormal samples exp(N(Mu, Sigma²)). Mu and Sigma are the parameters of
// the underlying normal, so the median is exp(Mu).
type LogNormal struct {
	Mu, Sigma float64
}

// FitLogNormal returns the LogNormal whose median and p90 match the given
// values, the way most paper targets are stated ("median 4 MB, 90% below
// 177 MB"). It panics if the inputs are not positive and increasing.
func FitLogNormal(median, p90 float64) LogNormal {
	if median <= 0 || p90 <= median {
		panic(fmt.Sprintf("dist: FitLogNormal requires 0 < median < p90, got %v, %v", median, p90))
	}
	// z(0.90) for the standard normal.
	const z90 = 1.2815515655446004
	mu := math.Log(median)
	sigma := (math.Log(p90) - mu) / z90
	return LogNormal{Mu: mu, Sigma: sigma}
}

// Sample draws one value.
func (l LogNormal) Sample(rng *rand.Rand) float64 {
	return math.Exp(rng.NormFloat64()*l.Sigma + l.Mu)
}

// Pareto samples a Pareto distribution with scale Xm (minimum value) and
// shape Alpha. Smaller Alpha means a heavier tail.
type Pareto struct {
	Xm, Alpha float64
}

// Sample draws one value.
func (p Pareto) Sample(rng *rand.Rand) float64 {
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	return p.Xm / math.Pow(u, 1/p.Alpha)
}

// Zipf samples ranks 1..N with probability proportional to 1/rank^S. It is
// the classic popularity model (the paper's pull counts and layer-reference
// tail are strongly Zipf-shaped).
type Zipf struct {
	N int64
	S float64

	cdf []float64 // lazily built cumulative weights
}

// NewZipf returns a Zipf sampler over ranks 1..n with exponent s. It panics
// on invalid parameters.
func NewZipf(n int64, s float64) *Zipf {
	if n <= 0 || s <= 0 {
		panic(fmt.Sprintf("dist: NewZipf(%d, %v) invalid", n, s))
	}
	z := &Zipf{N: n, S: s}
	z.build()
	return z
}

func (z *Zipf) build() {
	z.cdf = make([]float64, z.N)
	sum := 0.0
	for i := int64(0); i < z.N; i++ {
		sum += 1 / math.Pow(float64(i+1), z.S)
		z.cdf[i] = sum
	}
	for i := range z.cdf {
		z.cdf[i] /= sum
	}
}

// SampleInt draws a rank in [1, N].
func (z *Zipf) SampleInt(rng *rand.Rand) int64 {
	u := rng.Float64()
	i := sort.SearchFloat64s(z.cdf, u)
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return int64(i) + 1
}

// PointMass is one component of a discrete mixture: Value occurs with
// relative Weight.
type PointMass struct {
	Value  float64
	Weight float64
}

// Mixture combines discrete point masses with an optional continuous tail.
// With probability proportional to the point-mass weights, a fixed value is
// returned; with the remaining tail weight, the Tail sampler is consulted.
// This models targets like "7% of layers are empty, 27% have exactly one
// file, the rest follow a heavy-tailed body".
type Mixture struct {
	Masses []PointMass
	Tail   Sampler

	cum   []float64
	total float64
}

// NewMixture validates and precomputes the mixture. Weights need not sum to
// one; they are normalized. A nil Tail with a positive tailWeight panics.
func NewMixture(masses []PointMass, tailWeight float64, tail Sampler) *Mixture {
	if tailWeight > 0 && tail == nil {
		panic("dist: mixture has tail weight but no tail sampler")
	}
	if tailWeight < 0 {
		panic("dist: negative tail weight")
	}
	m := &Mixture{Masses: masses, Tail: tail}
	m.cum = make([]float64, len(masses))
	for i, pm := range masses {
		if pm.Weight < 0 {
			panic("dist: negative point mass weight")
		}
		m.total += pm.Weight
		m.cum[i] = m.total
	}
	m.total += tailWeight
	if m.total == 0 {
		panic("dist: mixture with zero total weight")
	}
	return m
}

// Sample draws one value.
func (m *Mixture) Sample(rng *rand.Rand) float64 {
	u := rng.Float64() * m.total
	i := sort.SearchFloat64s(m.cum, u)
	if i < len(m.cum) && (len(m.cum) > 0) {
		// SearchFloat64s finds first cum >= u; if u falls beyond all point
		// masses it returns len(cum) and we fall through to the tail.
		if u <= m.cum[len(m.cum)-1] {
			return m.Masses[i].Value
		}
	}
	return m.Tail.Sample(rng)
}

// Clamped limits an inner sampler to [Min, Max] by re-drawing (up to 16
// times) and finally clamping, keeping body shape intact while enforcing
// physical bounds such as "compression ratio is at least 1".
type Clamped struct {
	Inner    Sampler
	Min, Max float64
}

// Sample draws one value within the bounds.
func (c Clamped) Sample(rng *rand.Rand) float64 {
	for i := 0; i < 16; i++ {
		v := c.Inner.Sample(rng)
		if v >= c.Min && v <= c.Max {
			return v
		}
	}
	v := c.Inner.Sample(rng)
	if v < c.Min {
		return c.Min
	}
	if v > c.Max {
		return c.Max
	}
	return v
}

// Weighted selects among categories with fixed relative weights. The type
// parameter-free design (indices) keeps it allocation-free on the sampling
// path; callers map the index to their category.
type Weighted struct {
	cum   []float64
	total float64
}

// NewWeighted builds a categorical sampler from relative weights. Negative
// weights panic; at least one weight must be positive.
func NewWeighted(weights []float64) *Weighted {
	w := &Weighted{cum: make([]float64, len(weights))}
	for i, x := range weights {
		if x < 0 {
			panic("dist: negative category weight")
		}
		w.total += x
		w.cum[i] = w.total
	}
	if w.total <= 0 {
		panic("dist: all category weights zero")
	}
	return w
}

// Sample returns a category index in [0, len(weights)).
func (w *Weighted) Sample(rng *rand.Rand) int {
	u := rng.Float64() * w.total
	i := sort.SearchFloat64s(w.cum, u)
	if i >= len(w.cum) {
		i = len(w.cum) - 1
	}
	return i
}

// LogUniform samples log-uniformly over [Lo, Hi]: the logarithm of the
// sample is uniform. It is the natural "body" distribution for quantities
// whose CDF looks linear on a log-x plot, like the paper's file-per-layer
// counts between the point masses and the heavy tail.
type LogUniform struct {
	Lo, Hi float64
}

// Sample draws one value in [Lo, Hi].
func (l LogUniform) Sample(rng *rand.Rand) float64 {
	if l.Lo <= 0 || l.Hi < l.Lo {
		panic(fmt.Sprintf("dist: LogUniform{%v, %v} invalid", l.Lo, l.Hi))
	}
	return l.Lo * math.Exp(rng.Float64()*math.Log(l.Hi/l.Lo))
}

// TruncPareto is a Pareto distribution truncated at Cap: samples above Cap
// are clamped, concentrating tail mass at the cap the way a finite dataset
// bounds its maximum ("the file that has the maximum repeat count…").
type TruncPareto struct {
	Xm, Alpha, Cap float64
}

// Sample draws one value in [Xm, Cap].
func (p TruncPareto) Sample(rng *rand.Rand) float64 {
	v := Pareto{Xm: p.Xm, Alpha: p.Alpha}.Sample(rng)
	if v > p.Cap {
		return p.Cap
	}
	return v
}

// SplitRNG derives a new deterministic RNG from a base seed and a stream
// identifier, so independent generator stages (layers, files, pulls …) can
// be sampled in parallel without sharing one RNG's sequence.
func SplitRNG(seed int64, stream uint64) *rand.Rand {
	// SplitMix64 step to decorrelate streams from sequential ids.
	z := uint64(seed) + stream*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return rand.New(rand.NewSource(int64(z)))
}
