package stats

import (
	"math"
	"math/bits"
	"time"
)

// Hist is a log-bucketed latency histogram: constant memory regardless of
// sample count, mergeable across workers, and coordinated-omission-safe by
// construction when fed intended-start-to-completion durations (it does
// not care how samples were produced — it just never drops or averages
// away the tail the way a reservoir or a fixed-capacity sample would).
//
// Durations are bucketed at nanosecond granularity into 32 linear
// sub-buckets per power-of-two octave, giving a worst-case quantile error
// of ~3% of the value — far below run-to-run noise — across the full
// range from 1ns to ~2.5h. Count, sum, min and max are tracked exactly.
//
// The zero value is an empty, usable histogram. Hist is not synchronized:
// concurrent writers either share one external lock (short critical
// section, the bench-writer pattern) or record into per-worker histograms
// and Merge at the end (the scale-out pattern).
type Hist struct {
	counts [histBuckets]int64
	n      int64
	sum    int64 // nanoseconds; overflows after ~292 cumulative years
	min    int64 // valid only when n > 0
	max    int64
}

const (
	// histSubBits fixes 2^histSubBits linear sub-buckets per octave.
	histSubBits = 5
	histSub     = 1 << histSubBits
	// histMaxValue saturates recording; values above it land in the last
	// bucket (their exact max is still tracked).
	histMaxValue = int64(1) << 42 // ~73 minutes in nanoseconds
	histBuckets  = (43-histSubBits)*histSub + histSub
)

// histIndex maps a non-negative nanosecond value to its bucket. Values
// below histSub map linearly to themselves; each octave above splits into
// histSub equal sub-buckets, so bucket width scales with magnitude.
func histIndex(v int64) int {
	u := uint64(v)
	if u < histSub {
		return int(u)
	}
	exp := bits.Len64(u) - histSubBits - 1 // 0 for the first log octave
	return exp*histSub + int(u>>uint(exp))
}

// histBucketBounds returns the [lo, hi] nanosecond range bucket i covers.
func histBucketBounds(i int) (lo, hi int64) {
	if i < histSub {
		return int64(i), int64(i)
	}
	exp := i/histSub - 1
	sub := int64(histSub + i%histSub)
	lo = sub << uint(exp)
	return lo, lo + (1 << uint(exp)) - 1
}

// Record adds one duration sample. Negative durations clamp to zero (a
// request that completed before its intended start is "instant").
func (h *Hist) Record(d time.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.n++
	h.sum += v
	if v > histMaxValue {
		v = histMaxValue
	}
	h.counts[histIndex(v)]++
}

// Merge folds other into h, enabling per-worker accumulation.
func (h *Hist) Merge(other *Hist) {
	if other == nil || other.n == 0 {
		return
	}
	if h.n == 0 || other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	h.n += other.n
	h.sum += other.sum
	for i := range h.counts {
		h.counts[i] += other.counts[i]
	}
}

// N returns the sample count.
func (h *Hist) N() int64 { return h.n }

// Min returns the smallest recorded duration (0 when empty).
func (h *Hist) Min() time.Duration {
	if h.n == 0 {
		return 0
	}
	return time.Duration(h.min)
}

// Max returns the largest recorded duration (0 when empty), tracked
// exactly even past the bucketed range.
func (h *Hist) Max() time.Duration { return time.Duration(h.max) }

// Mean returns the arithmetic mean duration (0 when empty).
func (h *Hist) Mean() time.Duration {
	if h.n == 0 {
		return 0
	}
	return time.Duration(h.sum / h.n)
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) by nearest rank over the
// bucket counts. Within a bucket the midpoint is reported, clamped to the
// exact observed min/max so the extremes are never invented.
func (h *Hist) Quantile(q float64) time.Duration {
	if h.n == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	if rank >= h.n {
		// The top rank is the exact max — never a bucket midpoint.
		return time.Duration(h.max)
	}
	var seen int64
	for i := range h.counts {
		seen += h.counts[i]
		if seen >= rank {
			lo, hi := histBucketBounds(i)
			v := lo + (hi-lo)/2
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return time.Duration(v)
		}
	}
	return time.Duration(h.max)
}

// P returns Quantile(p/100): P(99.9) is the 99.9th percentile.
func (h *Hist) P(p float64) time.Duration { return h.Quantile(p / 100) }

// LatencySummary is the JSON latency shape of the bench record
// (BENCH_traffic.json). All values are milliseconds.
type LatencySummary struct {
	Count int64   `json:"count"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	P999  float64 `json:"p999"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Summary renders the histogram into the shared JSON shape.
func (h *Hist) Summary() LatencySummary {
	return LatencySummary{
		Count: h.n,
		P50:   ms(h.Quantile(0.5)),
		P90:   ms(h.Quantile(0.9)),
		P99:   ms(h.Quantile(0.99)),
		P999:  ms(h.Quantile(0.999)),
		Max:   ms(h.Max()),
		Mean:  ms(h.Mean()),
	}
}
