package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

// The quartiles must match Python's statistics.quantiles(xs, n=4),
// the exclusive method.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{seq(10), 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{7}, 7, 7},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

// A percentile is refused unless at least ten samples lie beyond it.
func TestPercentileRefusesThinTails(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		ok   bool
		want float64
	}{
		{99, 90, false, 0},
		{100, 90, true, 90},
		{100, 99, false, 0},
		{999, 99, false, 0},
		{1000, 99, true, 990},
		{19, 50, false, 0},
		{20, 50, true, 10},
	} {
		got, ok := percentile(seq(tc.n), tc.p)
		if ok != tc.ok || got != tc.want {
			t.Errorf("percentile(1..%d, %g) = %v, %v; want %v, %v", tc.n, tc.p, got, ok, tc.want, tc.ok)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metric{name: "wall_s", better: "lower", bound: 0.10}
	higher := metric{name: "sim_maccess_per_s", better: "higher", bound: 0.10}
	sum := func(med, q1, q3 float64) summary { return summary{Median: med, Q1: q1, Q3: q3, N: 5} }
	for _, tc := range []struct {
		name       string
		m          metric
		base, head summary
		want       string
	}{
		{"slower beyond bound", lower, sum(100, 98, 102), sum(120, 118, 122), "worse"},
		{"faster beyond bound", lower, sum(100, 98, 102), sum(80, 78, 82), "better"},
		{"within bound", lower, sum(100, 98, 102), sum(105, 103, 107), "unchanged"},
		{"wide and overlapping", lower, sum(100, 80, 120), sum(112, 100, 125), "unresolved"},
		{"wide but separated", lower, sum(100, 80, 120), sum(150, 130, 170), "worse"},
		{"higher is better", higher, sum(100, 98, 102), sum(120, 118, 122), "better"},
		{"higher drops", higher, sum(100, 98, 102), sum(80, 78, 82), "worse"},
		{"no samples", lower, summary{}, sum(100, 98, 102), "unresolved"},
	} {
		if got := verdict(tc.m, tc.base, tc.head); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
}
