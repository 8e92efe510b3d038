package stats

import (
	"math"
	"testing"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestLog2HistogramBuckets(t *testing.T) {
	h := NewLog2Histogram(8)
	cases := []struct {
		v    uint64
		want int
	}{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4},
		{1 << 20, 7}, // clamped to last bucket
	}
	for _, c := range cases {
		if got := h.bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%d) = %d want %d", c.v, got, c.want)
		}
	}
}

func TestLog2HistogramCDF(t *testing.T) {
	h := NewLog2Histogram(4)
	h.Add(1) // bucket 0
	h.Add(2) // bucket 1
	h.Add(4) // bucket 2
	h.Add(8) // bucket 3
	cdf := h.CDF()
	want := []float64{0.25, 0.5, 0.75, 1.0}
	for i := range want {
		if !almost(cdf[i], want[i]) {
			t.Errorf("cdf[%d] = %v want %v", i, cdf[i], want[i])
		}
	}
	if h.Total() != 4 {
		t.Errorf("Total = %d", h.Total())
	}
}

func TestLog2HistogramEmptyCDF(t *testing.T) {
	h := NewLog2Histogram(3)
	for _, v := range h.CDF() {
		if v != 0 {
			t.Error("empty histogram CDF should be all zeros")
		}
	}
}

func TestFractionAbove(t *testing.T) {
	h := NewLog2Histogram(16)
	h.AddN(100, 85) // bucket 7 (64 < 100 <= 128)
	h.AddN(10, 15)  // bucket 4
	// Threshold 64: bucket upper bounds <=64 are buckets 0..6; only the
	// 15 observations at value 10 fall below.
	if got := h.FractionAbove(64); !almost(got, 0.85) {
		t.Errorf("FractionAbove(64) = %v want 0.85", got)
	}
}

func TestMerge(t *testing.T) {
	a := NewLog2Histogram(4)
	b := NewLog2Histogram(4)
	a.Add(1)
	b.Add(8)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Total() != 2 || a.Count(3) != 1 {
		t.Errorf("merge result: total=%d count3=%d", a.Total(), a.Count(3))
	}
	c := NewLog2Histogram(5)
	if err := a.Merge(c); err == nil {
		t.Error("want error for mismatched bucket counts")
	}
}

func TestMeans(t *testing.T) {
	xs := []float64{1, 2, 4}
	if !almost(Mean(xs), 7.0/3) {
		t.Errorf("Mean = %v", Mean(xs))
	}
	if Mean(nil) != 0 {
		t.Error("empty-slice mean must be 0")
	}
}

func TestPercentChange(t *testing.T) {
	if !almost(PercentChange(200, 100), 100) {
		t.Errorf("PercentChange(200,100) = %v", PercentChange(200, 100))
	}
	if !almost(PercentChange(100, 100), 0) {
		t.Error("no change must be 0%")
	}
	if !almost(PercentChange(100, 200), -50) {
		t.Errorf("slowdown = %v want -50", PercentChange(100, 200))
	}
	if PercentChange(100, 0) != 0 {
		t.Error("zero measured cycles must not divide by zero")
	}
}
