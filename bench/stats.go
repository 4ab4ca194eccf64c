package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile: a
// tail percentile read off fewer samples than this is noise, so percentile
// refuses to report it.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of xs:
// the smallest sample with at least p% of the samples at or below it. It
// refuses (returns an error) when fewer than beyond samples lie above that
// rank. xs is left as it was.
func percentile(xs []float64, p float64, beyond int) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("p%g of no samples", p)
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	if n-rank < beyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want ≥ %d", p, n, n-rank, beyond)
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	return xs[rank-1], nil
}

// median is the nearest-rank median with no tail requirement.
func median(xs []float64) float64 {
	v, err := percentile(xs, 50, 0)
	if err != nil {
		return 0
	}
	return v
}

// qerror is the multiplicative estimation error max(est/true, true/est)
// with both selectivities floored at 1/rows, the smallest non-zero
// selectivity a table of that many rows can have — so an empty query
// answered with a tiny estimate is not an infinite error.
func qerror(est, truth float64, rows int) float64 {
	floor := 1 / float64(rows)
	est = math.Max(est, floor)
	truth = math.Max(truth, floor)
	return math.Max(est/truth, truth/est)
}

// spread summarizes repeated runs of one metric: the median, the quartiles
// exactly as Python's statistics.quantiles(values, n=4) computes them, and
// the interquartile distance relative to the median.
type spread struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Rel    float64 `json:"rel_spread"`
}

func summarize(vals []float64) spread {
	xs := append([]float64(nil), vals...)
	sort.Float64s(xs)
	if len(xs) < 2 {
		v := 0.0
		if len(xs) == 1 {
			v = xs[0]
		}
		return spread{Median: v, Q1: v, Q3: v}
	}
	// statistics.quantiles' default "exclusive" method: cut point i of 4
	// sits at position i·(n+1)/4, with the index clamped to [1, n-1] and
	// the weight left free, so the outer cut points may extrapolate.
	cut := func(i int) float64 {
		n := len(xs)
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (xs[j-1]*(4-delta) + xs[j]*delta) / 4
	}
	s := spread{Q1: cut(1), Median: cut(2), Q3: cut(3)}
	if s.Median != 0 {
		s.Rel = (s.Q3 - s.Q1) / math.Abs(s.Median)
	}
	return s
}
