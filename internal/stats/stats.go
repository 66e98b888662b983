// Package stats provides the distribution machinery used to characterize
// the Docker Hub dataset: empirical CDFs with exact quantiles, and linear
// and logarithmic histograms.
//
// All figure reproductions in this repository reduce to one of three
// artifacts from this package: a CDF evaluated at paper-reported knees, a
// histogram over paper-matching buckets, or a share table (percentage of
// count/capacity per category).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// CDF is an empirical cumulative distribution function over float64 samples.
// It stores the sorted sample and answers quantile and fraction-below
// queries exactly. The zero value is empty; add samples with Add.
type CDF struct {
	samples []float64
	sorted  bool
}

// Add appends a sample.
func (c *CDF) Add(v float64) {
	c.samples = append(c.samples, v)
	c.sorted = false
}

// AddInt appends an integer sample.
func (c *CDF) AddInt(v int64) { c.Add(float64(v)) }

func (c *CDF) sort() {
	if !c.sorted {
		sort.Float64s(c.samples)
		c.sorted = true
	}
}

// N returns the number of samples.
func (c *CDF) N() int { return len(c.samples) }

// Min returns the smallest sample, or 0 for an empty CDF.
func (c *CDF) Min() float64 {
	if len(c.samples) == 0 {
		return 0
	}
	c.sort()
	return c.samples[0]
}

// Max returns the largest sample, or 0 for an empty CDF.
func (c *CDF) Max() float64 {
	if len(c.samples) == 0 {
		return 0
	}
	c.sort()
	return c.samples[len(c.samples)-1]
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) using the nearest-rank
// definition, which matches how the paper reads values off its CDF plots
// ("90% of the layers are smaller than 177MB"). Quantile(0.5) is the median.
func (c *CDF) Quantile(q float64) float64 {
	if len(c.samples) == 0 {
		return 0
	}
	c.sort()
	if q <= 0 {
		return c.samples[0]
	}
	if q >= 1 {
		return c.samples[len(c.samples)-1]
	}
	rank := int(math.Ceil(q*float64(len(c.samples)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(c.samples) {
		rank = len(c.samples) - 1
	}
	return c.samples[rank]
}

// Median is shorthand for Quantile(0.5).
func (c *CDF) Median() float64 { return c.Quantile(0.5) }

// P returns Quantile(p/100): P(90) is the 90th percentile.
func (c *CDF) P(p float64) float64 { return c.Quantile(p / 100) }

// FractionEqual returns the fraction of samples exactly equal to x, useful
// for point masses ("27% of the layers only have a single file").
func (c *CDF) FractionEqual(x float64) float64 {
	if len(c.samples) == 0 {
		return 0
	}
	c.sort()
	lo := sort.Search(len(c.samples), func(i int) bool { return c.samples[i] >= x })
	hi := sort.Search(len(c.samples), func(i int) bool { return c.samples[i] > x })
	return float64(hi-lo) / float64(len(c.samples))
}

// Points returns up to n evenly spaced (x, F(x)) points for plotting or
// rendering a CDF table.
func (c *CDF) Points(n int) []Point {
	if len(c.samples) == 0 || n <= 0 {
		return nil
	}
	c.sort()
	if n > len(c.samples) {
		n = len(c.samples)
	}
	pts := make([]Point, 0, n)
	for i := 0; i < n; i++ {
		idx := (i + 1) * len(c.samples) / n
		if idx > 0 {
			idx--
		}
		pts = append(pts, Point{
			X: c.samples[idx],
			Y: float64(idx+1) / float64(len(c.samples)),
		})
	}
	return pts
}

// Point is a single (x, y) coordinate of a rendered distribution.
type Point struct {
	X, Y float64
}

// Histogram counts samples into buckets. Buckets are defined by their
// upper boundaries: bucket i holds samples v with Bounds[i-1] < v ≤
// Bounds[i] (bucket 0 holds v ≤ Bounds[0]); an implicit overflow bucket
// holds everything above the last bound.
type Histogram struct {
	bounds   []float64
	counts   []int64
	overflow int64
	total    int64
}

// NewHistogram builds a histogram with the given strictly increasing upper
// bounds. It panics if bounds are empty or not increasing, which would be a
// programming error in experiment definitions.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("stats: histogram needs at least one bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("stats: histogram bounds not increasing at %d", i))
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]int64, len(bounds)),
	}
}

// LinearBounds returns n bounds evenly spaced over (0, max]: max/n, 2max/n…
// This matches the paper's fixed-width frequency plots (e.g. Figure 3(b)'s
// 0–128 MB range).
func LinearBounds(max float64, n int) []float64 {
	if n <= 0 || max <= 0 {
		panic("stats: LinearBounds requires positive max and n")
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = max * float64(i+1) / float64(n)
	}
	return b
}

// Add records one sample.
func (h *Histogram) Add(v float64) { h.AddN(v, 1) }

// AddN records a sample with weight n (n occurrences at value v).
func (h *Histogram) AddN(v float64, n int64) {
	h.total += n
	i := sort.SearchFloat64s(h.bounds, v)
	// SearchFloat64s returns the first index with bounds[i] >= v; that is
	// exactly the bucket whose upper bound covers v.
	if i >= len(h.bounds) {
		h.overflow += n
		return
	}
	h.counts[i] += n
}

// Total returns the number of recorded samples (including overflow).
func (h *Histogram) Total() int64 { return h.total }

// Overflow returns the number of samples above the last bound.
func (h *Histogram) Overflow() int64 { return h.overflow }

// Buckets returns the per-bucket counts aligned with the bounds.
func (h *Histogram) Buckets() []Bucket {
	out := make([]Bucket, len(h.bounds))
	for i, ub := range h.bounds {
		out[i] = Bucket{High: ub, Count: h.counts[i]}
	}
	return out
}

// ModeBucket returns the bucket with the highest count. Overflow is not a
// candidate. For an empty histogram it returns the first bucket.
func (h *Histogram) ModeBucket() Bucket {
	best := 0
	for i, c := range h.counts {
		if c > h.counts[best] {
			best = i
		}
		_ = c
	}
	return h.Buckets()[best]
}

// Bucket is a single histogram bar: values above the previous bar's High
// and at most this High occurred Count times.
type Bucket struct {
	High  float64
	Count int64
}

// Gini returns the Gini coefficient of the sample (0 = perfectly even,
// →1 = maximally concentrated), the standard scalar for skew statements
// like the paper's "image accesses are skewed towards a small number of
// popular images". Negative samples are not meaningful for a Gini and
// yield NaN-free but undefined results; callers pass counts.
func (c *CDF) Gini() float64 {
	n := len(c.samples)
	if n == 0 {
		return 0
	}
	c.sort()
	var cum, total float64
	for i, v := range c.samples {
		cum += float64(i+1) * v
		total += v
	}
	if total == 0 {
		return 0
	}
	return (2*cum)/(float64(n)*total) - float64(n+1)/float64(n)
}

// ShareTable computes the percentage share of count and capacity per
// category, the form of figures 14 and 16–22 ("13% of files are source
// code…", "EOL files occupy the most capacity (37%)").
type ShareTable struct {
	order []string
	rows  map[string]*shareRow
}

type shareRow struct {
	count    int64
	capacity float64
}

// NewShareTable returns an empty share table.
func NewShareTable() *ShareTable {
	return &ShareTable{rows: make(map[string]*shareRow)}
}

// Add records n items of total size bytes under the named category.
func (t *ShareTable) Add(category string, n int64, bytes float64) {
	r, ok := t.rows[category]
	if !ok {
		r = &shareRow{}
		t.rows[category] = r
		t.order = append(t.order, category)
	}
	r.count += n
	r.capacity += bytes
}

// Share is one row of a rendered share table.
type Share struct {
	Category      string
	Count         int64
	Capacity      float64
	CountShare    float64 // fraction of total count, 0..1
	CapacityShare float64 // fraction of total capacity, 0..1
	MeanSize      float64 // capacity / count
}

// Rows returns shares sorted by descending capacity.
func (t *ShareTable) Rows() []Share {
	var totalN int64
	var totalCap float64
	for _, r := range t.rows {
		totalN += r.count
		totalCap += r.capacity
	}
	out := make([]Share, 0, len(t.rows))
	for _, cat := range t.order {
		r := t.rows[cat]
		s := Share{Category: cat, Count: r.count, Capacity: r.capacity}
		if totalN > 0 {
			s.CountShare = float64(r.count) / float64(totalN)
		}
		if totalCap > 0 {
			s.CapacityShare = r.capacity / totalCap
		}
		if r.count > 0 {
			s.MeanSize = r.capacity / float64(r.count)
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Capacity != out[j].Capacity {
			return out[i].Capacity > out[j].Capacity
		}
		return out[i].Category < out[j].Category
	})
	return out
}

// Get returns the share row for a category (zero row if absent).
func (t *ShareTable) Get(category string) Share {
	for _, s := range t.Rows() {
		if s.Category == category {
			return s
		}
	}
	return Share{Category: category}
}
