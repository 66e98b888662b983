// Package popularity analyzes repository pull counts (Fig. 8) and carries
// the paper's caching implication forward: "the skewness of the two curves
// suggests that Docker Hub is a good fit for caching popular repositories
// or images to reduce pull latencies" (§IV-B(a), future work §VI).
//
// It also synthesizes a pull trace from the pull-count distribution: the
// skewed request stream trafficsim's scenarios replay against the real
// registry cache (internal/cache), where hit ratio is measured rather
// than modelled.
package popularity

import (
	"errors"
	"math"
	"math/rand"
	"sort"

	"repro/internal/stats"
)

// PullStats summarizes a pull-count distribution against Fig. 8's numbers.
type PullStats struct {
	Median float64
	P90    float64
	Max    float64
	// Top lists the highest pull counts in descending order.
	Top []int64
	// SecondPeak is the most frequent pull value in the 20–60 range (the
	// paper's curious second peak at 37).
	SecondPeak int64
}

// Analyze computes the Fig. 8 statistics.
func Analyze(pulls []int64) PullStats {
	c := &stats.CDF{}
	freq := make(map[int64]int)
	var top []int64
	for _, p := range pulls {
		c.AddInt(p)
		if p >= 20 && p <= 60 {
			freq[p]++
		}
		top = insertTop(top, p, 5)
	}
	var peak int64
	best := 0
	for v, n := range freq {
		if n > best || (n == best && v < peak) {
			peak, best = v, n
		}
	}
	return PullStats{
		Median:     c.Median(),
		P90:        c.P(90),
		Max:        c.Max(),
		Top:        top,
		SecondPeak: peak,
	}
}

func insertTop(top []int64, v int64, k int) []int64 {
	pos := len(top)
	for pos > 0 && top[pos-1] < v {
		pos--
	}
	top = append(top, 0)
	copy(top[pos+1:], top[pos:])
	top[pos] = v
	if len(top) > k {
		top = top[:k]
	}
	return top
}

// TailExponent estimates the power-law exponent alpha of the upper tail of
// the pull-count distribution using the Hill estimator over the top k
// order statistics. For a Zipf-like popularity with P(X > x) ∝ x^-alpha,
// smaller alpha means a heavier tail (more extreme concentration). Returns
// 0 when fewer than k+1 positive samples exist.
func TailExponent(pulls []int64, k int) float64 {
	var xs []float64
	for _, p := range pulls {
		if p > 0 {
			xs = append(xs, float64(p))
		}
	}
	if k < 1 || len(xs) <= k {
		return 0
	}
	sort.Float64s(xs)
	// Top k+1 order statistics; x_(n-k) is the threshold.
	n := len(xs)
	threshold := xs[n-k-1]
	var sum float64
	for i := n - k; i < n; i++ {
		sum += math.Log(xs[i] / threshold)
	}
	if sum == 0 {
		return 0
	}
	return float64(k) / sum
}

// Trace synthesizes n pull events where repository i is pulled with
// probability proportional to pulls[i], replaying the cumulative pull
// counts as an arrival sequence.
func Trace(pulls []int64, n int, seed int64) ([]int, error) {
	if len(pulls) == 0 {
		return nil, errors.New("popularity: empty pull counts")
	}
	cum := make([]float64, len(pulls))
	var total float64
	for i, p := range pulls {
		if p < 0 {
			return nil, errors.New("popularity: negative pull count")
		}
		total += float64(p)
		cum[i] = total
	}
	if total == 0 {
		return nil, errors.New("popularity: all pull counts zero")
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]int, n)
	for j := range out {
		u := rng.Float64() * total
		lo, hi := 0, len(cum)-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cum[mid] < u {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		out[j] = lo
	}
	return out, nil
}
