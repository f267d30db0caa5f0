package main

import (
	"strings"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		p    float64
		n    int
		want float64 // 0: refused
	}{
		{50, 19, 0},
		{50, 20, 10},
		{50, 21, 11},
		{90, 99, 0},
		{90, 100, 90},
		{90, 150, 135},
		{99, 999, 0},
		{99, 1000, 990},
	} {
		got, err := percentile(seq(c.n), c.p)
		if c.want == 0 {
			if err == nil {
				t.Errorf("p%g of n=%d: got %v, want refusal", c.p, c.n, got)
			} else if !strings.Contains(err.Error(), "n=") {
				t.Errorf("p%g of n=%d: refusal %q does not state n", c.p, c.n, err)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("p%g of n=%d: got %v, %v; want %v", c.p, c.n, got, err, c.want)
		}
	}
	if _, err := percentile(seq(50), 100); err == nil {
		t.Error("p100 accepted")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd: %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even: %v", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("empty: %v", m)
	}
}
