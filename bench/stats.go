package main

import (
	"math"
	"sort"
)

// minPerRoundSamples is the smallest round a percentile is taken over on
// its own: p95 of 200 samples leaves 10 beyond it. Smaller rounds pool
// their samples over the whole measured window.
const minPerRoundSamples = 200

// percentile is the nearest-rank percentile of sorted (ascending) values:
// the smallest value with at least p percent of the samples at or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// beyond is how many of n samples lie above the nearest-rank percentile p.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - int(math.Ceil(p/100*float64(n)))
}

// median is the middle of values (mean of the middle two for even counts).
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quantileStat is a percentile reported the benchmark's way, with what it
// was taken over.
type quantileStat struct {
	Value float64 `json:"value"`
	// PerRound holds each round's percentile when rounds are large enough
	// to stand alone (Value is their median); empty when pooled.
	PerRound []float64 `json:"per_round,omitempty"`
	// Samples is the count the percentile was taken over: one round's ops
	// when per-round, every measured op when pooled.
	Samples int  `json:"samples"`
	Beyond  int  `json:"samples_beyond"`
	Pooled  bool `json:"pooled"`
}

// roundPercentile applies the benchmark's percentile rule to per-round
// sample sets: per round then median when every round has at least
// minPerRoundSamples, otherwise one percentile over all samples pooled.
func roundPercentile(rounds [][]float64, p float64) quantileStat {
	smallest := math.MaxInt
	for _, r := range rounds {
		smallest = min(smallest, len(r))
	}
	if len(rounds) > 0 && smallest >= minPerRoundSamples {
		per := make([]float64, len(rounds))
		for i, r := range rounds {
			s := append([]float64(nil), r...)
			sort.Float64s(s)
			per[i] = percentile(s, p)
		}
		return quantileStat{Value: median(per), PerRound: per, Samples: smallest, Beyond: beyond(smallest, p)}
	}
	var all []float64
	for _, r := range rounds {
		all = append(all, r...)
	}
	sort.Float64s(all)
	return quantileStat{Value: percentile(all, p), Samples: len(all), Beyond: beyond(len(all), p), Pooled: true}
}
