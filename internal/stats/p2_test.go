package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestP2QuantileUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		e := NewP2Quantile(q)
		for i := 0; i < 100_000; i++ {
			e.Add(rng.Float64())
		}
		if got := e.Value(); math.Abs(got-q) > 0.01 {
			t.Errorf("uniform q=%v estimate %v", q, got)
		}
	}
}

func TestP2QuantileLogNormal(t *testing.T) {
	// Heavy-tailed input, the realistic case for file sizes.
	rng := rand.New(rand.NewSource(2))
	exact := &CDF{}
	e50 := NewP2Quantile(0.5)
	e90 := NewP2Quantile(0.9)
	for i := 0; i < 200_000; i++ {
		v := math.Exp(rng.NormFloat64()*1.8 + 10)
		exact.Add(v)
		e50.Add(v)
		e90.Add(v)
	}
	if rel := math.Abs(e50.Value()-exact.Median()) / exact.Median(); rel > 0.05 {
		t.Errorf("p50 estimate off by %.1f%%", rel*100)
	}
	if rel := math.Abs(e90.Value()-exact.P(90)) / exact.P(90); rel > 0.08 {
		t.Errorf("p90 estimate off by %.1f%%", rel*100)
	}
}

func TestP2QuantileSmallN(t *testing.T) {
	e := NewP2Quantile(0.5)
	if e.Value() != 0 {
		t.Error("empty estimator should return 0")
	}
	for _, v := range []float64{3, 1, 2} {
		e.Add(v)
	}
	if got := e.Value(); got != 2 {
		t.Errorf("exact small-n median = %v, want 2", got)
	}
}

func TestP2QuantilePanics(t *testing.T) {
	for _, q := range []float64{0, 1, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewP2Quantile(%v) did not panic", q)
				}
			}()
			NewP2Quantile(q)
		}()
	}
}

// Property: the estimate always lies within the observed range, and marker
// heights stay sorted.
func TestQuickP2WithinRange(t *testing.T) {
	f := func(raw []uint16, qSel uint8) bool {
		if len(raw) == 0 {
			return true
		}
		q := 0.05 + float64(qSel%90)/100
		e := NewP2Quantile(q)
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, r := range raw {
			v := float64(r)
			e.Add(v)
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		got := e.Value()
		return got >= lo-1e-9 && got <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestP2Digest(t *testing.T) {
	d := NewP2Digest(0.5, 0.9)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50_000; i++ {
		d.Add(rng.Float64() * 100)
	}
	if got := d.Quantile(0.5); math.Abs(got-50) > 2 {
		t.Errorf("digest p50 = %v", got)
	}
	if got := d.Quantile(0.9); math.Abs(got-90) > 2 {
		t.Errorf("digest p90 = %v", got)
	}
	if d.Summary().N() != 50_000 {
		t.Errorf("summary N = %d", d.Summary().N())
	}
	defer func() {
		if recover() == nil {
			t.Error("untracked quantile did not panic")
		}
	}()
	d.Quantile(0.25)
}

// TestP2AgreesWithCDFOnLayerSizes cross-checks the streaming estimator
// against the exact CDF on a realistic synthetic distribution.
func TestP2AgreesWithCDFOnLayerSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	exact := &CDF{}
	stream := NewP2Digest(0.5, 0.9)
	for i := 0; i < 100_000; i++ {
		// Mixture resembling layer sizes: mostly small, heavy tail.
		var v float64
		if rng.Float64() < 0.3 {
			v = rng.Float64() * 1000
		} else {
			v = math.Exp(rng.NormFloat64()*2 + 8)
		}
		exact.Add(v)
		stream.Add(v)
	}
	for _, q := range []float64{0.5, 0.9} {
		ex, st := exact.Quantile(q), stream.Quantile(q)
		if rel := math.Abs(ex-st) / ex; rel > 0.1 {
			t.Errorf("q=%v: exact %v vs stream %v (%.1f%% off)", q, ex, st, rel*100)
		}
	}
}

func BenchmarkP2Add(b *testing.B) {
	e := NewP2Quantile(0.9)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Add(float64(i % 10_000))
	}
}
