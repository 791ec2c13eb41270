package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for an empty slice. xs is not
// modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs with the same
// method as Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), so the spreads this program reports match the
// ones computed over its results. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		return median(s), median(s)
	}
	// statistics.quantiles: position i·(n+1)/4 in 1-based order
	// statistics, its integer part clamped to 1..n−1 and the remainder
	// interpolated (or extrapolated, after clamping) in exact integers.
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// xs: the smallest value with at least p% of the samples at or below
// it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	return s[min(max(rank(p, len(s)), 1), len(s))-1]
}

// rank is the 1-based nearest rank of the p-th percentile in n samples.
// The tolerance keeps p·n/100 from rounding up past an exact integer
// (99.9 × 1000 / 100 is 999.0000000000001 in floating point).
func rank(p float64, n int) int {
	return int(math.Ceil(p/100*float64(n) - 1e-9))
}

// tailPercentile returns the highest of the standard reporting
// percentiles (99.9, 99, 95, 90, 50) that leaves at least ten samples
// strictly beyond its nearest rank in a sample of n, so a reported tail
// never rests on a handful of observations. It returns 0 when n is too
// small for even the median.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99.9, 99, 95, 90, 50} {
		if n-rank(p, n) >= 10 {
			return p
		}
	}
	return 0
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// interval is a closed-open time range [start, end).
type interval struct{ start, end time.Time }

// unionLength returns the total time covered by the union of ivs.
func unionLength(ivs []interval) time.Duration {
	if len(ivs) == 0 {
		return 0
	}
	s := append([]interval(nil), ivs...)
	sort.Slice(s, func(a, b int) bool { return s[a].start.Before(s[b].start) })
	var total time.Duration
	cur := s[0]
	for _, iv := range s[1:] {
		if !iv.start.After(cur.end) {
			if iv.end.After(cur.end) {
				cur.end = iv.end
			}
			continue
		}
		total += cur.end.Sub(cur.start)
		cur = iv
	}
	return total + cur.end.Sub(cur.start)
}

// overlapLength returns how much of the intervals' summed length lies
// in time already covered by another interval of the set: the time
// concurrent intervals ran side by side.
func overlapLength(ivs []interval) time.Duration {
	var sum time.Duration
	for _, iv := range ivs {
		sum += iv.end.Sub(iv.start)
	}
	return sum - unionLength(ivs)
}

// selfTime returns the summed self time of the parent spans: each
// parent's duration minus the part of it that child spans cover. A
// child counts toward a parent when it carries the parent's key or the
// wildcard anyKey; overlapping children are counted once.
func selfTime(parents, children []span) time.Duration {
	kids := append([]span(nil), children...)
	sort.Slice(kids, func(a, b int) bool { return kids[a].start.Before(kids[b].start) })
	var total time.Duration
	var clipped []interval
	for _, p := range parents {
		clipped = clipped[:0]
		// Children are sorted by start, so the scan stops at the first
		// one starting after the parent ends.
		end := sort.Search(len(kids), func(i int) bool { return !kids[i].start.Before(p.end) })
		for _, c := range kids[:end] {
			if c.key != p.key && c.key != anyKey {
				continue
			}
			if !c.end.After(p.start) {
				continue
			}
			iv := interval{c.start, c.end}
			if iv.start.Before(p.start) {
				iv.start = p.start
			}
			if iv.end.After(p.end) {
				iv.end = p.end
			}
			clipped = append(clipped, iv)
		}
		total += p.end.Sub(p.start) - unionLength(clipped)
	}
	return total
}
