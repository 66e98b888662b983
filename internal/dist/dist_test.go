package dist

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// The helpers below are the analytic side of the samplers: the tests
// check draws against them, and no program needs them.

// Constant always returns Value; useful as a degenerate tail.
type Constant float64

// Sample returns the constant value.
func (c Constant) Sample(*rand.Rand) float64 { return float64(c) }

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

func sampleMany(s Sampler, rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = s.Sample(rng)
	}
	return out
}

func empiricalQuantile(xs []float64, q float64) float64 {
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	i := int(q*float64(len(ys))) - 1
	if i < 0 {
		i = 0
	}
	return ys[i]
}

func TestFitLogNormalHitsTargets(t *testing.T) {
	ln := FitLogNormal(4e6, 177e6) // paper layer FLS targets
	if math.Abs(ln.Median()-4e6) > 1 {
		t.Fatalf("median = %v, want 4e6", ln.Median())
	}
	if got := ln.Quantile(0.90); math.Abs(got-177e6)/177e6 > 1e-6 {
		t.Fatalf("p90 = %v, want 177e6", got)
	}
	rng := rand.New(rand.NewSource(1))
	xs := sampleMany(ln, rng, 200_000)
	med := empiricalQuantile(xs, 0.5)
	p90 := empiricalQuantile(xs, 0.9)
	if math.Abs(med-4e6)/4e6 > 0.05 {
		t.Errorf("empirical median = %v, want ~4e6", med)
	}
	if math.Abs(p90-177e6)/177e6 > 0.05 {
		t.Errorf("empirical p90 = %v, want ~177e6", p90)
	}
}

func TestFitLogNormalPanics(t *testing.T) {
	for _, c := range []struct{ med, p90 float64 }{{0, 1}, {-1, 2}, {5, 5}, {5, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("FitLogNormal(%v,%v) did not panic", c.med, c.p90)
				}
			}()
			FitLogNormal(c.med, c.p90)
		}()
	}
}

func TestNormQuantileSymmetry(t *testing.T) {
	for _, p := range []float64{0.01, 0.1, 0.25, 0.4} {
		if d := normQuantile(p) + normQuantile(1-p); math.Abs(d) > 1e-8 {
			t.Errorf("normQuantile not symmetric at %v: sum=%v", p, d)
		}
	}
	if math.Abs(normQuantile(0.5)) > 1e-9 {
		t.Errorf("normQuantile(0.5) = %v, want 0", normQuantile(0.5))
	}
	// Known value: z(0.975) ≈ 1.959964.
	if got := normQuantile(0.975); math.Abs(got-1.959964) > 1e-4 {
		t.Errorf("normQuantile(0.975) = %v", got)
	}
}

func TestParetoTail(t *testing.T) {
	p := Pareto{Xm: 10, Alpha: 2}
	rng := rand.New(rand.NewSource(2))
	xs := sampleMany(p, rng, 100_000)
	for _, x := range xs {
		if x < 10 {
			t.Fatalf("Pareto sample %v below Xm", x)
		}
	}
	// Mean of Pareto(xm=10, a=2) is a*xm/(a-1) = 20.
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(len(xs))
	if math.Abs(mean-20)/20 > 0.15 {
		t.Errorf("Pareto mean = %v, want ~20", mean)
	}
}

func TestZipfRankOneDominates(t *testing.T) {
	z := NewZipf(1000, 1.1)
	rng := rand.New(rand.NewSource(3))
	counts := make(map[int64]int)
	const n = 100_000
	for i := 0; i < n; i++ {
		r := z.SampleInt(rng)
		if r < 1 || r > 1000 {
			t.Fatalf("rank %d out of range", r)
		}
		counts[r]++
	}
	if counts[1] <= counts[2] || counts[2] <= counts[10] {
		t.Errorf("Zipf not rank-ordered: c1=%d c2=%d c10=%d", counts[1], counts[2], counts[10])
	}
	emp := float64(counts[1]) / n
	if math.Abs(emp-z.Prob(1)) > 0.01 {
		t.Errorf("empirical P(rank1)=%v, analytic=%v", emp, z.Prob(1))
	}
}

func TestZipfProbSumsToOne(t *testing.T) {
	z := NewZipf(50, 0.8)
	var sum float64
	for r := int64(1); r <= 50; r++ {
		sum += z.Prob(r)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("Zipf probabilities sum to %v", sum)
	}
	if z.Prob(0) != 0 || z.Prob(51) != 0 {
		t.Fatal("out-of-range Prob should be 0")
	}
}

func TestZipfPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewZipf(0, 1) did not panic")
		}
	}()
	NewZipf(0, 1)
}

func TestMixturePointMasses(t *testing.T) {
	// 7% zeros, 27% ones, 66% tail at 100 — the files-per-layer shape.
	m := NewMixture(
		[]PointMass{{Value: 0, Weight: 0.07}, {Value: 1, Weight: 0.27}},
		0.66, Constant(100),
	)
	rng := rand.New(rand.NewSource(4))
	var zeros, ones, tail int
	const n = 200_000
	for i := 0; i < n; i++ {
		switch m.Sample(rng) {
		case 0:
			zeros++
		case 1:
			ones++
		case 100:
			tail++
		default:
			t.Fatal("unexpected mixture value")
		}
	}
	if math.Abs(float64(zeros)/n-0.07) > 0.01 {
		t.Errorf("zero share = %v, want ~0.07", float64(zeros)/n)
	}
	if math.Abs(float64(ones)/n-0.27) > 0.01 {
		t.Errorf("one share = %v, want ~0.27", float64(ones)/n)
	}
	if math.Abs(float64(tail)/n-0.66) > 0.01 {
		t.Errorf("tail share = %v, want ~0.66", float64(tail)/n)
	}
}

func TestMixtureNoTail(t *testing.T) {
	m := NewMixture([]PointMass{{Value: 5, Weight: 1}}, 0, nil)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		if m.Sample(rng) != 5 {
			t.Fatal("pure point mass returned non-mass value")
		}
	}
}

func TestMixturePanics(t *testing.T) {
	cases := []func(){
		func() { NewMixture(nil, 0.5, nil) },
		func() { NewMixture([]PointMass{{1, -1}}, 0, nil) },
		func() { NewMixture(nil, 0, nil) },
		func() { NewMixture([]PointMass{{1, 1}}, -0.5, Constant(0)) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestClamped(t *testing.T) {
	c := Clamped{Inner: LogNormal{Mu: 0, Sigma: 3}, Min: 1, Max: 10}
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 10_000; i++ {
		v := c.Sample(rng)
		if v < 1 || v > 10 {
			t.Fatalf("clamped sample %v out of [1,10]", v)
		}
	}
}

func TestWeighted(t *testing.T) {
	w := NewWeighted([]float64{1, 0, 3})
	rng := rand.New(rand.NewSource(7))
	counts := make([]int, 3)
	const n = 100_000
	for i := 0; i < n; i++ {
		counts[w.Sample(rng)]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight category sampled %d times", counts[1])
	}
	if math.Abs(float64(counts[0])/n-0.25) > 0.01 {
		t.Errorf("category 0 share = %v, want 0.25", float64(counts[0])/n)
	}
	if len(w.cum) != 3 {
		t.Errorf("Len = %d", len(w.cum))
	}
}

func TestWeightedPanics(t *testing.T) {
	for i, weights := range [][]float64{{}, {0, 0}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			NewWeighted(weights)
		}()
	}
}

func TestSplitRNGIndependence(t *testing.T) {
	a := SplitRNG(42, 1)
	b := SplitRNG(42, 2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Int63() == b.Int63() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("streams 1 and 2 coincided %d/100 times", same)
	}
	// Same stream id must be reproducible.
	c, d := SplitRNG(42, 7), SplitRNG(42, 7)
	for i := 0; i < 100; i++ {
		if c.Int63() != d.Int63() {
			t.Fatal("SplitRNG not deterministic")
		}
	}
}

// Property: FitLogNormal always produces a distribution whose analytic
// median/p90 match the inputs.
func TestQuickFitLogNormal(t *testing.T) {
	f := func(m, spread uint32) bool {
		median := 1 + float64(m%1_000_000)
		p90 := median * (1.5 + float64(spread%1000))
		ln := FitLogNormal(median, p90)
		return math.Abs(ln.Median()-median)/median < 1e-9 &&
			math.Abs(ln.Quantile(0.9)-p90)/p90 < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLogUniform(t *testing.T) {
	lu := LogUniform{Lo: 3, Hi: 7410}
	rng := rand.New(rand.NewSource(10))
	xs := sampleMany(lu, rng, 100_000)
	for _, x := range xs {
		if x < 3 || x > 7410 {
			t.Fatalf("sample %v out of range", x)
		}
	}
	// Median should be close to the geometric mean sqrt(3*7410) ≈ 149.
	med := empiricalQuantile(xs, 0.5)
	if med < 120 || med > 180 {
		t.Errorf("log-uniform median = %v, want ~149", med)
	}
}

func TestLogUniformPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("LogUniform{0,1} did not panic")
		}
	}()
	LogUniform{Lo: 0, Hi: 1}.Sample(rand.New(rand.NewSource(1)))
}

func TestTruncPareto(t *testing.T) {
	p := TruncPareto{Xm: 11, Alpha: 1.04, Cap: 50_000}
	rng := rand.New(rand.NewSource(11))
	hitCap := 0
	for i := 0; i < 100_000; i++ {
		v := p.Sample(rng)
		if v < 11 || v > 50_000 {
			t.Fatalf("sample %v out of [11, 50000]", v)
		}
		if v == 50_000 {
			hitCap++
		}
	}
	if hitCap == 0 {
		t.Error("heavy tail never reached the cap")
	}
}

func BenchmarkZipfSample(b *testing.B) {
	z := NewZipf(1_000_000, 1.05)
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.SampleInt(rng)
	}
}

func BenchmarkLogNormalSample(b *testing.B) {
	ln := FitLogNormal(4e6, 177e6)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		ln.Sample(rng)
	}
}
