package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{9, 1, 5, 3, 7} // sorted: 1 3 5 7 9
	for _, c := range []struct{ p, want float64 }{{0, 1}, {25, 3}, {50, 5}, {90, 8.2}, {100, 9}} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); !near(got, 2.5) {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	if percentile(nil, 50) != 0 || median([]float64{7}) != 7 {
		t.Error("empty and single-sample percentiles")
	}
	if xs[0] != 9 {
		t.Error("percentile sorted its argument in place")
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4) gives,
// which is what the acceptance protocol computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{10, 20, 30, 40}, 12.5, 37.5},
		{[]float64{5}, 5, 5},
	} {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// A tail percentile is reported only with at least ten samples beyond it.
func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{{200, 95, true}, {120, 92, true}, {96, 90, true}, {64, 85, true}, {20, 52, true}, {19, 0, false}, {0, 0, false}} {
		p, ok := tailPercentile(c.n, 10)
		if p != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.want, c.ok)
		}
		if !ok {
			continue
		}
		// Count it on real samples 0..n-1: strictly beyond the percentile.
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(i)
		}
		beyond := 0
		for _, x := range xs {
			if x > percentile(xs, p) {
				beyond++
			}
		}
		if beyond < 10 {
			t.Errorf("n=%d p%v has only %d samples beyond", c.n, p, beyond)
		}
		if q, _ := tailPercentile(c.n, 10); q < 99 {
			next := 0
			for _, x := range xs {
				if x > percentile(xs, q+1) {
					next++
				}
			}
			if next >= 10 {
				t.Errorf("n=%d: p%v also has %d beyond, so p%v is not the highest", c.n, q+1, next, q)
			}
		}
	}
}

func TestSummarize(t *testing.T) {
	s := summarize([]float64{4, 2, 8})
	if s.Median != 4 || s.Min != 2 || s.Max != 8 || s.Q1 != 2 || s.Q3 != 8 || s.N != 3 {
		t.Errorf("summarize = %+v", s)
	}
	if (summarize(nil) != summary{}) {
		t.Error("summarize(nil) is not zero")
	}
}
