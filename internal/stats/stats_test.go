package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCDFQuantiles(t *testing.T) {
	// 1..100: nearest-rank median of 100 samples is the 50th value = 50.
	c := &CDF{}
	for i := 1; i <= 100; i++ {
		c.AddInt(int64(i))
	}
	if got := c.Median(); got != 50 {
		t.Errorf("Median = %v, want 50", got)
	}
	if got := c.P(90); got != 90 {
		t.Errorf("P90 = %v, want 90", got)
	}
	if got := c.Quantile(0); got != 1 {
		t.Errorf("Quantile(0) = %v, want 1", got)
	}
	if got := c.Quantile(1); got != 100 {
		t.Errorf("Quantile(1) = %v, want 100", got)
	}
	if got := c.Min(); got != 1 {
		t.Errorf("Min = %v", got)
	}
	if got := c.Max(); got != 100 {
		t.Errorf("Max = %v", got)
	}
	if got := c.Mean(); got != 50.5 {
		t.Errorf("Mean = %v, want 50.5", got)
	}
}

func TestCDFEmpty(t *testing.T) {
	c := &CDF{}
	if c.Median() != 0 || c.Min() != 0 || c.Max() != 0 || c.Mean() != 0 {
		t.Error("empty CDF should return zeros")
	}
	if pts := c.Points(5); pts != nil {
		t.Error("empty CDF Points should be nil")
	}
}

func TestCDFFractionEqual(t *testing.T) {
	c := newCDF([]float64{0, 0, 0, 1, 2})
	if got := c.FractionEqual(0); math.Abs(got-0.6) > 1e-12 {
		t.Errorf("FractionEqual(0) = %v, want 0.6", got)
	}
	if got := c.FractionEqual(5); got != 0 {
		t.Errorf("FractionEqual(5) = %v, want 0", got)
	}
}

func TestCDFPointsMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := &CDF{}
	for i := 0; i < 1000; i++ {
		c.Add(rng.ExpFloat64() * 100)
	}
	pts := c.Points(50)
	if len(pts) != 50 {
		t.Fatalf("Points returned %d points", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].X < pts[i-1].X || pts[i].Y < pts[i-1].Y {
			t.Fatalf("points not monotone at %d: %+v -> %+v", i, pts[i-1], pts[i])
		}
	}
	if last := pts[len(pts)-1].Y; math.Abs(last-1.0) > 1e-9 {
		t.Errorf("final CDF point y = %v, want 1", last)
	}
}

// Property: for any sample set, quantiles are monotone in q and the CDF at
// the q-quantile is at least q.
func TestQuickQuantileMonotone(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		c := &CDF{}
		for _, v := range raw {
			c.Add(float64(v))
		}
		prev := math.Inf(-1)
		for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
			v := c.Quantile(q)
			if v < prev {
				return false
			}
			below := 0
			for _, r := range raw {
				if float64(r) <= v {
					below++
				}
			}
			if float64(below)/float64(len(raw)) < q-1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramBasic(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4, 8})
	for _, v := range []float64{0.5, 1, 1.5, 3, 7, 9, 100} {
		h.Add(v)
	}
	b := h.Buckets()
	wantCounts := []int64{2, 1, 1, 1} // (..1]=0.5,1  (1,2]=1.5  (2,4]=3  (4,8]=7
	for i, w := range wantCounts {
		if b[i].Count != w {
			t.Errorf("bucket %d count = %d, want %d", i, b[i].Count, w)
		}
	}
	if h.Overflow() != 2 {
		t.Errorf("overflow = %d, want 2", h.Overflow())
	}
	if h.Total() != 7 {
		t.Errorf("total = %d, want 7", h.Total())
	}
}

func TestHistogramAddN(t *testing.T) {
	h := NewHistogram([]float64{10, 20})
	h.AddN(5, 100)
	h.AddN(15, 50)
	if h.Buckets()[0].Count != 100 || h.Buckets()[1].Count != 50 {
		t.Fatalf("AddN counts wrong: %+v", h.Buckets())
	}
	if h.ModeBucket().High != 10 {
		t.Fatalf("ModeBucket = %+v, want high=10", h.ModeBucket())
	}
}

// Property: histogram mass is conserved — total equals sum of buckets plus
// overflow — for any bounds and samples.
func TestQuickHistogramMassConservation(t *testing.T) {
	f := func(samples []float64, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		bounds := make([]float64, n)
		x := rng.Float64()
		for i := range bounds {
			bounds[i] = x
			x += 0.1 + rng.Float64()
		}
		h := NewHistogram(bounds)
		for _, s := range samples {
			if math.IsNaN(s) {
				continue
			}
			h.Add(s)
		}
		var sum int64
		for _, b := range h.Buckets() {
			sum += b.Count
		}
		return sum+h.Overflow() == h.Total()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramPanicsOnBadBounds(t *testing.T) {
	for _, bounds := range [][]float64{nil, {}, {2, 1}, {1, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHistogram(%v) did not panic", bounds)
				}
			}()
			NewHistogram(bounds)
		}()
	}
}

func TestLinearBounds(t *testing.T) {
	b := LinearBounds(128, 4)
	want := []float64{32, 64, 96, 128}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("LinearBounds = %v, want %v", b, want)
		}
	}
}

func TestGini(t *testing.T) {
	// Perfect equality.
	even := newCDF([]float64{5, 5, 5, 5})
	if g := even.Gini(); math.Abs(g) > 1e-12 {
		t.Errorf("Gini(equal) = %v, want 0", g)
	}
	// One holder of everything among n: Gini = (n-1)/n.
	skewed := newCDF([]float64{0, 0, 0, 100})
	if g := skewed.Gini(); math.Abs(g-0.75) > 1e-12 {
		t.Errorf("Gini(winner-take-all, n=4) = %v, want 0.75", g)
	}
	// Monotone: more concentration, higher Gini.
	mild := newCDF([]float64{10, 20, 30, 40})
	if mild.Gini() <= even.Gini() || mild.Gini() >= skewed.Gini() {
		t.Errorf("Gini ordering broken: %v %v %v", even.Gini(), mild.Gini(), skewed.Gini())
	}
	if (&CDF{}).Gini() != 0 {
		t.Error("empty Gini != 0")
	}
	zeros := newCDF([]float64{0, 0})
	if zeros.Gini() != 0 {
		t.Error("all-zero Gini != 0")
	}
}

// Property: Gini is always in [0, 1) for non-negative samples.
func TestQuickGiniRange(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		c := &CDF{}
		for _, v := range raw {
			c.Add(float64(v))
		}
		g := c.Gini()
		return g >= -1e-12 && g < 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestShareTable(t *testing.T) {
	tab := NewShareTable()
	tab.Add("EOL", 110, 370e9)
	tab.Add("Doc", 440, 140e9)
	tab.Add("Arch", 50, 230e9)
	tab.Add("EOL", 0, 0) // re-adding existing category must not duplicate

	rows := tab.Rows()
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	// Sorted by capacity descending: EOL, Arch, Doc.
	if rows[0].Category != "EOL" || rows[1].Category != "Arch" || rows[2].Category != "Doc" {
		t.Fatalf("row order: %v %v %v", rows[0].Category, rows[1].Category, rows[2].Category)
	}
	eol := tab.Get("EOL")
	if math.Abs(eol.CountShare-110.0/600.0) > 1e-12 {
		t.Errorf("EOL count share = %v", eol.CountShare)
	}
	if math.Abs(eol.CapacityShare-370.0/740.0) > 1e-12 {
		t.Errorf("EOL capacity share = %v", eol.CapacityShare)
	}
	if math.Abs(eol.MeanSize-370e9/110) > 1e-3 {
		t.Errorf("EOL mean size = %v", eol.MeanSize)
	}
	missing := tab.Get("nope")
	if missing.Count != 0 || missing.Category != "nope" {
		t.Errorf("missing category row: %+v", missing)
	}
}

// Property: share fractions sum to ~1 for any non-empty table with positive
// entries.
func TestQuickShareSumsToOne(t *testing.T) {
	f := func(counts []uint8) bool {
		tab := NewShareTable()
		any := false
		for i, c := range counts {
			if c == 0 {
				continue
			}
			any = true
			tab.Add(string(rune('a'+i%26)), int64(c), float64(c)*7)
		}
		if !any {
			return true
		}
		var cs, ps float64
		for _, r := range tab.Rows() {
			cs += r.CountShare
			ps += r.CapacityShare
		}
		return math.Abs(cs-1) < 1e-9 && math.Abs(ps-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCDFQuantile(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	c := &CDF{}
	for i := 0; i < 100_000; i++ {
		c.Add(rng.Float64())
	}
	c.Quantile(0.5) // force sort outside the loop
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Quantile(0.9)
	}
}

func BenchmarkHistogramAdd(b *testing.B) {
	h := NewHistogram(LinearBounds(1_000_000, 41))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Add(float64(i % 1_000_000))
	}
}

// newCDF builds a CDF holding samples.
func newCDF(samples []float64) *CDF {
	c := &CDF{}
	for _, v := range samples {
		c.Add(v)
	}
	return c
}

// Mean returns the arithmetic mean, or 0 for an empty CDF.
func (c *CDF) Mean() float64 {
	if len(c.samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range c.samples {
		sum += v
	}
	return sum / float64(len(c.samples))
}
