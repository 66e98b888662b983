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

// Median returns the distribution median exp(Mu).
func (l LogNormal) Median() float64 { return math.Exp(l.Mu) }

// Quantile returns the q-quantile of the distribution.
func (l LogNormal) Quantile(q float64) float64 {
	return math.Exp(l.Mu + l.Sigma*normQuantile(q))
}

// normQuantile is the standard normal quantile function (Acklam's
// approximation, relative error < 1.15e-9, plenty for calibration work).
func normQuantile(p float64) float64 {
	if p <= 0 || p >= 1 {
		panic(fmt.Sprintf("dist: normQuantile requires 0<p<1, got %v", p))
	}
	a := []float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
		1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := []float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
		6.680131188771972e+01, -1.328068155288572e+01}
	c := []float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
		-2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := []float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
		3.754408661907416e+00}
	const plow, phigh = 0.02425, 1 - 0.02425
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p > phigh:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	default:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	}
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
// tail are strongly Zipf-shaped). Unlike math/rand.Zipf it exposes the rank
// probabilities for analysis.
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

// Prob returns the probability of rank r.
func (z *Zipf) Prob(r int64) float64 {
	if r < 1 || r > z.N {
		return 0
	}
	if r == 1 {
		return z.cdf[0]
	}
	return z.cdf[r-1] - z.cdf[r-2]
}

// PointMass is one component of a discrete mixture: Value occurs with
// relative Weight.
type PointMass struct {
	Value  float64
	Weight float64
}

// Mixture combines discrete point masses with an optional continuous tail.
// With probability proportional to the point-mass weights, a fixed value is
// returned; with the remaining TailWeight, the Tail sampler is consulted.
// This models targets like "7% of layers are empty, 27% have exactly one
// file, the rest follow a heavy-tailed body".
type Mixture struct {
	Masses     []PointMass
	TailWeight float64
	Tail       Sampler

	cum   []float64
	total float64
}

// NewMixture validates and precomputes the mixture. Weights need not sum to
// one; they are normalized. A nil Tail with positive TailWeight panics.
func NewMixture(masses []PointMass, tailWeight float64, tail Sampler) *Mixture {
	if tailWeight > 0 && tail == nil {
		panic("dist: mixture has tail weight but no tail sampler")
	}
	if tailWeight < 0 {
		panic("dist: negative tail weight")
	}
	m := &Mixture{Masses: masses, TailWeight: tailWeight, Tail: tail}
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

// Constant always returns Value; useful as a degenerate tail.
type Constant float64

// Sample returns the constant value.
func (c Constant) Sample(*rand.Rand) float64 { return float64(c) }

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

// Len returns the number of categories.
func (w *Weighted) Len() int { return len(w.cum) }

// Geometric samples k ≥ 1 with P(k) ∝ (1-P)^(k-1), i.e. the number of
// Bernoulli(P) trials up to and including the first success.
type Geometric struct {
	P float64 // success probability in (0, 1]
}

// SampleInt draws one value ≥ 1.
func (g Geometric) SampleInt(rng *rand.Rand) int64 {
	if g.P >= 1 {
		return 1
	}
	if g.P <= 0 {
		panic("dist: Geometric.P must be in (0,1]")
	}
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	return int64(math.Ceil(math.Log(u) / math.Log(1-g.P)))
}

// Discretize converts a float sampler into an integer sampler by rounding
// half away from zero and flooring at Min.
type Discretize struct {
	Inner Sampler
	Min   int64
}

// SampleInt draws one integer value.
func (d Discretize) SampleInt(rng *rand.Rand) int64 {
	v := int64(math.Round(d.Inner.Sample(rng)))
	if v < d.Min {
		return d.Min
	}
	return v
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
