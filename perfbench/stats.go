package main

import (
	"sort"
	"time"
)

// dist is a sample distribution's summary, always carried with its count.
type dist struct {
	N   int
	P50 float64
	P90 float64
	P99 float64
	Max float64
}

// quantile returns the q-quantile of sorted by linear interpolation
// between the closest ranks (position q·(n−1)). sorted must be ascending
// and non-empty.
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// summarize sorts a copy of xs and returns its distribution; the zero dist
// for no samples.
func summarize(xs []float64) dist {
	if len(xs) == 0 {
		return dist{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return dist{N: len(s), P50: quantile(s, 0.50), P90: quantile(s, 0.90), P99: quantile(s, 0.99), Max: s[len(s)-1]}
}

// median is summarize(xs).P50.
func median(xs []float64) float64 { return summarize(xs).P50 }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sum adds durations.
func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// msAll converts durations to milliseconds.
func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
