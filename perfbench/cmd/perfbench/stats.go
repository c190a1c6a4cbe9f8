package main

import (
	"math"
	"slices"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile.
// A p99 over 500 samples would rest on five values, so the rule
// reports the highest percentile that still has ten samples beyond it
// (p98 there) and says so next to the value.
const minBeyond = 10

// quantile is one percentile as reported: the value, the percentile
// actually used after the minBeyond rule, and the sample count.
type quantile struct {
	Value float64
	Pct   float64
	N     int
}

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// samples, lowered to the highest rank with at least minBeyond samples
// above it. With too few samples for any such rank it returns the
// minimum with Pct 0. samples is sorted in place.
func percentile(samples []float64, p float64) quantile {
	n := len(samples)
	if n == 0 {
		return quantile{}
	}
	sort.Float64s(samples)
	k := int(math.Ceil(p/100*float64(n))) - 1
	k = max(0, min(k, n-1, n-1-minBeyond))
	q := quantile{Value: samples[k], N: n}
	if n-1-k >= minBeyond {
		q.Pct = 100 * float64(k+1) / float64(n)
	}
	return q
}

// median is the plain median of a handful of repeated measurements
// (set-ups, slices); the minBeyond rule is for sample percentiles.
// samples is sorted in place.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	sort.Float64s(samples)
	if n%2 == 1 {
		return samples[n/2]
	}
	return (samples[n/2-1] + samples[n/2]) / 2
}

// interval is a half-open span [Start, End) in monotonic nanoseconds.
type interval struct{ Start, End int64 }

// selfTime is a parent span's duration minus the part of it its
// children cover. Children may overlap each other and may stick out of
// the parent; only their union inside the parent counts.
func selfTime(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		c.Start, c.End = max(c.Start, parent.Start), min(c.End, parent.End)
		if c.End > c.Start {
			clipped = append(clipped, c)
		}
	}
	slices.SortFunc(clipped, func(a, b interval) int {
		switch {
		case a.Start < b.Start:
			return -1
		case a.Start > b.Start:
			return 1
		}
		return 0
	})
	var covered, end int64
	end = math.MinInt64
	for _, c := range clipped {
		if c.Start > end {
			covered += c.End - c.Start
			end = c.End
		} else if c.End > end {
			covered += c.End - end
			end = c.End
		}
	}
	return parent.End - parent.Start - covered
}

// nsTo converts nanosecond samples to unit (1e6 for ms, 1e3 for µs).
func nsTo(samples []int64, unit float64) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = float64(s) / unit
	}
	return out
}
