package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics; 0 for an empty slice. xs is
// sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return xs[lo]
	}
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQuantile returns the highest percentile up to p99 that still has
// at least minTail samples beyond it, and which percentile that was.
// With fewer than minTail+1 samples it falls back to the maximum.
func tailQuantile(xs []float64, minTail int) (value, pct float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	q := 0.99
	if lim := 1 - float64(minTail)/float64(n); lim < q {
		q = lim
	}
	if q <= 0 {
		sort.Float64s(xs)
		return xs[n-1], 100
	}
	return quantile(xs, q), 100 * q
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
