package main

import (
	"math"
	"sort"
)

// summary describes one value per rep of one metric.
type summary struct {
	Unit    string    `json:"unit"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples"`
}

// minBeyond is how many samples a reported percentile needs beyond
// it; with fewer, the percentile describes a handful of outliers.
const minBeyond = 10

func summarize(unit string, perRep []float64) summary {
	s := summary{Unit: unit, N: len(perRep), Samples: perRep}
	if len(perRep) > 0 {
		s.Median = median(perRep)
		s.Q1, s.Q3 = quartiles(perRep)
	}
	return s
}

// spread is the distance between the quartiles as a share of the
// median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles by the exclusive
// method, as Python's statistics.quantiles(xs, n=4) computes them.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n == 1 {
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// percentile returns the p-th percentile (nearest rank) and whether
// at least minBeyond samples lie beyond it; a percentile without that
// many is refused.
func percentile(xs []float64, p float64) (float64, bool) {
	if len(xs) == 0 || float64(len(xs))*(100-p)/100 < minBeyond {
		return 0, false
	}
	return rank(xs, p), true
}

// rank is the nearest-rank p-th percentile of a non-empty sample.
func rank(xs []float64, p float64) float64 {
	s := sorted(xs)
	i := int(math.Ceil(p / 100 * float64(len(s))))
	return s[max(i, 1)-1]
}

// verdict judges head against base for one metric: "worse" or
// "better" when the medians differ by more than the bound in either
// direction, "unresolved" when either side's spread exceeds the bound
// and the quartile ranges overlap, and "unchanged" otherwise.
func verdict(m metric, base, head summary) string {
	if base.N == 0 || head.N == 0 || base.Median == 0 {
		return "unresolved"
	}
	worse := (head.Median - base.Median) / math.Abs(base.Median)
	if m.better == "higher" {
		worse = -worse
	}
	overlap := base.Q1 <= head.Q3 && head.Q1 <= base.Q3
	switch {
	case max(base.spread(), head.spread()) > m.bound && overlap:
		return "unresolved"
	case worse > m.bound:
		return "worse"
	case worse < -m.bound:
		return "better"
	}
	return "unchanged"
}
