// Package popularity analyzes repository pull counts (Fig. 8) and carries
// the paper's caching implication forward: "the skewness of the two curves
// suggests that Docker Hub is a good fit for caching popular repositories
// or images to reduce pull latencies" (§IV-B(a), future work §VI).
//
// It synthesizes a pull trace from the pull-count distribution and replays
// it against pluggable cache policies (LRU, LFU) at several capacities,
// producing the hit-ratio-vs-cache-size curves a registry cache design
// would be evaluated on.
package popularity

import (
	"container/heap"
	"container/list"
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

// Cache is a registry-side image cache policy.
type Cache interface {
	// Access records a pull of the keyed object with the given size and
	// reports whether it was a hit.
	Access(key int, size int64) bool
	// Used returns the bytes currently cached.
	Used() int64
}

// LRU is a byte-capacity least-recently-used cache.
type LRU struct {
	capacity int64
	used     int64
	order    *list.List // front = most recent; values are lruEntry
	items    map[int]*list.Element
}

type lruEntry struct {
	key  int
	size int64
}

// NewLRU returns an LRU cache holding up to capacity bytes.
func NewLRU(capacity int64) *LRU {
	return &LRU{capacity: capacity, order: list.New(), items: make(map[int]*list.Element)}
}

// Access implements Cache.
func (c *LRU) Access(key int, size int64) bool {
	if el, ok := c.items[key]; ok {
		c.order.MoveToFront(el)
		return true
	}
	if size > c.capacity {
		return false // too large to ever cache
	}
	for c.used+size > c.capacity {
		back := c.order.Back()
		ent := back.Value.(lruEntry)
		c.order.Remove(back)
		delete(c.items, ent.key)
		c.used -= ent.size
	}
	c.items[key] = c.order.PushFront(lruEntry{key, size})
	c.used += size
	return false
}

// Used implements Cache.
func (c *LRU) Used() int64 { return c.used }

// LFU is a byte-capacity least-frequently-used cache with FIFO tie-break.
type LFU struct {
	capacity int64
	used     int64
	items    map[int]*lfuEntry
	h        lfuHeap
	tick     int64
}

type lfuEntry struct {
	key   int
	size  int64
	freq  int64
	stamp int64
	idx   int
}

type lfuHeap []*lfuEntry

func (h lfuHeap) Len() int { return len(h) }
func (h lfuHeap) Less(i, j int) bool {
	if h[i].freq != h[j].freq {
		return h[i].freq < h[j].freq
	}
	return h[i].stamp < h[j].stamp
}
func (h lfuHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx, h[j].idx = i, j
}
func (h *lfuHeap) Push(x any) {
	e := x.(*lfuEntry)
	e.idx = len(*h)
	*h = append(*h, e)
}
func (h *lfuHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// NewLFU returns an LFU cache holding up to capacity bytes.
func NewLFU(capacity int64) *LFU {
	return &LFU{capacity: capacity, items: make(map[int]*lfuEntry)}
}

// Access implements Cache.
func (c *LFU) Access(key int, size int64) bool {
	c.tick++
	if e, ok := c.items[key]; ok {
		e.freq++
		heap.Fix(&c.h, e.idx)
		return true
	}
	if size > c.capacity {
		return false
	}
	for c.used+size > c.capacity {
		victim := heap.Pop(&c.h).(*lfuEntry)
		delete(c.items, victim.key)
		c.used -= victim.size
	}
	e := &lfuEntry{key: key, size: size, freq: 1, stamp: c.tick}
	heap.Push(&c.h, e)
	c.items[key] = e
	c.used += size
	return false
}

// Used implements Cache.
func (c *LFU) Used() int64 { return c.used }

// SimResult summarizes one cache simulation.
type SimResult struct {
	Accesses  int
	Hits      int
	HitRatio  float64
	ByteHits  int64
	ByteTotal int64
	// ByteHitRatio is the fraction of pulled bytes served from cache —
	// the registry-side bandwidth saving.
	ByteHitRatio float64
}

// Simulate replays trace (indices into sizes) against the cache.
func Simulate(trace []int, sizes []int64, cache Cache) (SimResult, error) {
	var res SimResult
	for _, key := range trace {
		if key < 0 || key >= len(sizes) {
			return res, errors.New("popularity: trace key out of range")
		}
		size := sizes[key]
		res.Accesses++
		res.ByteTotal += size
		if cache.Access(key, size) {
			res.Hits++
			res.ByteHits += size
		}
	}
	if res.Accesses > 0 {
		res.HitRatio = float64(res.Hits) / float64(res.Accesses)
	}
	if res.ByteTotal > 0 {
		res.ByteHitRatio = float64(res.ByteHits) / float64(res.ByteTotal)
	}
	return res, nil
}
