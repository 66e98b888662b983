package stats

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// Bucket indexing must be monotone and contiguous: every value maps to a
// bucket whose bounds contain it, and bounds tile the range with no gaps.
func TestHistBucketLayout(t *testing.T) {
	prevHi := int64(-1)
	for i := 0; i < histBuckets; i++ {
		lo, hi := histBucketBounds(i)
		if lo != prevHi+1 {
			t.Fatalf("bucket %d: lo=%d, want %d (gap or overlap)", i, lo, prevHi+1)
		}
		if hi < lo {
			t.Fatalf("bucket %d: hi=%d < lo=%d", i, hi, lo)
		}
		if got := histIndex(lo); got != i {
			t.Fatalf("histIndex(%d)=%d, want %d", lo, got, i)
		}
		if got := histIndex(hi); got != i {
			t.Fatalf("histIndex(%d)=%d, want %d", hi, got, i)
		}
		prevHi = hi
	}
	if prevHi < histMaxValue {
		t.Fatalf("buckets top out at %d, below saturation point %d", prevHi, histMaxValue)
	}
}

// Quantiles must track an exact CDF within the bucket resolution (~3%
// relative) on log-uniform samples spanning six orders of magnitude.
func TestHistQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := &Hist{}
	c := &CDF{}
	for i := 0; i < 20000; i++ {
		// 1µs .. 1s, log-uniform.
		v := time.Duration(float64(time.Microsecond) * math.Pow(10, rng.Float64()*6))
		h.Record(v)
		c.Add(float64(v))
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99, 0.999} {
		got := float64(h.Quantile(q))
		want := c.Quantile(q)
		if rel := abs(got-want) / want; rel > 0.04 {
			t.Errorf("q=%g: hist=%g exact=%g (rel err %.3f)", q, got, want, rel)
		}
	}
	if h.Max() != time.Duration(c.Max()) {
		t.Errorf("Max=%v, want exact %v", h.Max(), time.Duration(c.Max()))
	}
	if h.Min() != time.Duration(c.Min()) {
		t.Errorf("Min=%v, want exact %v", h.Min(), time.Duration(c.Min()))
	}
}

func abs(x float64) float64 { return math.Abs(x) }

// The zero value works, negatives clamp, and values beyond the bucketed
// range saturate without losing the exact max.
func TestHistEdges(t *testing.T) {
	var h Hist
	if h.N() != 0 || h.Quantile(0.99) != 0 || h.Max() != 0 || h.Mean() != 0 {
		t.Fatal("zero-value histogram not empty")
	}
	s := h.Summary()
	if s.Count != 0 || s.P99 != 0 {
		t.Fatalf("empty summary %+v", s)
	}

	h.Record(-time.Second)
	if h.Min() != 0 || h.Max() != 0 || h.N() != 1 {
		t.Fatalf("negative sample: min=%v max=%v n=%d", h.Min(), h.Max(), h.N())
	}

	huge := 10 * time.Hour // beyond histMaxValue
	h.Record(huge)
	if h.Max() != huge {
		t.Fatalf("saturated max=%v, want %v", h.Max(), huge)
	}
	if got := h.Quantile(1); got != huge {
		t.Fatalf("p100=%v, want exact max %v", got, huge)
	}
}

// Summary must report milliseconds and fill every percentile field.
func TestHistSummaryShape(t *testing.T) {
	h := &Hist{}
	for i := 1; i <= 1000; i++ {
		h.Record(time.Duration(i) * time.Millisecond)
	}
	s := h.Summary()
	if s.Count != 1000 {
		t.Fatalf("count=%d", s.Count)
	}
	if s.P50 < 450 || s.P50 > 550 {
		t.Errorf("p50=%g ms, want ~500", s.P50)
	}
	if s.P999 < 950 || s.P999 > 1000 {
		t.Errorf("p999=%g ms, want ~999", s.P999)
	}
	if s.Max != 1000 {
		t.Errorf("max=%g ms, want 1000", s.Max)
	}
	if !(s.P50 <= s.P90 && s.P90 <= s.P99 && s.P99 <= s.P999 && s.P999 <= s.Max) {
		t.Errorf("percentiles not monotone: %+v", s)
	}
}

// Min returns the smallest recorded duration (0 when empty).
func (h *Hist) Min() time.Duration {
	if h.n == 0 {
		return 0
	}
	return time.Duration(h.min)
}
