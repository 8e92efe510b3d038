// Package stats provides the statistical plumbing used by the experiment
// harness: power-of-two histograms for CDFs (the paper plots dead-times,
// correlation distances and sequence lengths on log2 axes) and the scalar
// aggregates the reports print (means and percent speedups).
package stats

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Log2Histogram counts observations in power-of-two buckets:
// bucket i holds values v with 2^(i-1) < v <= 2^i (bucket 0 holds v <= 1).
// It matches the x-axes of the paper's Figures 2, 6, 7 and 9.
type Log2Histogram struct {
	counts []uint64
	total  uint64
}

// NewLog2Histogram creates a histogram with the given number of buckets.
// Values beyond the last bucket are clamped into it.
func NewLog2Histogram(buckets int) *Log2Histogram {
	if buckets < 1 {
		buckets = 1
	}
	return &Log2Histogram{counts: make([]uint64, buckets)}
}

// bucketOf returns the bucket index for v: the smallest i with v <= 2^i.
func (h *Log2Histogram) bucketOf(v uint64) int {
	b := 0
	if v > 1 {
		b = bits.Len64(v - 1) // ceil(log2(v))
	}
	if b >= len(h.counts) {
		b = len(h.counts) - 1
	}
	return b
}

// Add records one observation of value v.
func (h *Log2Histogram) Add(v uint64) { h.AddN(v, 1) }

// AddN records n observations of value v.
func (h *Log2Histogram) AddN(v, n uint64) {
	h.counts[h.bucketOf(v)] += n
	h.total += n
}

// Total returns the number of observations.
func (h *Log2Histogram) Total() uint64 { return h.total }

// GobEncode implements gob.GobEncoder: the bucket count followed by the
// per-bucket counts as uvarints (the total is derived on decode). The
// persistent result cache (internal/cachedir) stores experiment cell
// results through encoding/gob, which cannot see unexported fields; this
// pair makes histograms round-trip exactly, so warm-cache reports are
// byte-identical to cold ones.
func (h *Log2Histogram) GobEncode() ([]byte, error) {
	buf := make([]byte, 0, 2+10*len(h.counts))
	buf = binary.AppendUvarint(buf, uint64(len(h.counts)))
	for _, c := range h.counts {
		buf = binary.AppendUvarint(buf, c)
	}
	return buf, nil
}

// GobDecode implements gob.GobDecoder.
func (h *Log2Histogram) GobDecode(data []byte) error {
	n, k := binary.Uvarint(data)
	if k <= 0 || n == 0 || n > 1<<20 {
		return fmt.Errorf("stats: corrupt Log2Histogram encoding (buckets=%d)", n)
	}
	data = data[k:]
	h.counts = make([]uint64, n)
	h.total = 0
	for i := range h.counts {
		c, k := binary.Uvarint(data)
		if k <= 0 {
			return fmt.Errorf("stats: truncated Log2Histogram encoding (bucket %d/%d)", i, n)
		}
		data = data[k:]
		h.counts[i] = c
		h.total += c
	}
	if len(data) != 0 {
		return fmt.Errorf("stats: %d trailing bytes in Log2Histogram encoding", len(data))
	}
	return nil
}

// Buckets returns the number of buckets.
func (h *Log2Histogram) Buckets() int { return len(h.counts) }

// Count returns the raw count in bucket i.
func (h *Log2Histogram) Count(i int) uint64 { return h.counts[i] }

// UpperBound returns the inclusive upper bound of bucket i (2^i).
func (h *Log2Histogram) UpperBound(i int) uint64 { return 1 << uint(i) }

// CDF returns cumulative fractions per bucket: CDF()[i] is the fraction of
// observations with value <= 2^i. An empty histogram returns all zeros.
func (h *Log2Histogram) CDF() []float64 {
	out := make([]float64, len(h.counts))
	if h.total == 0 {
		return out
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		out[i] = float64(cum) / float64(h.total)
	}
	return out
}

// FractionAbove returns the fraction of observations with value strictly
// greater than threshold.
func (h *Log2Histogram) FractionAbove(threshold uint64) float64 {
	if h.total == 0 {
		return 0
	}
	var below uint64
	for i, c := range h.counts {
		if h.UpperBound(i) <= threshold {
			below += c
		}
	}
	return 1 - float64(below)/float64(h.total)
}

// Merge adds the counts of other into h. The histograms must have the same
// number of buckets.
func (h *Log2Histogram) Merge(other *Log2Histogram) error {
	if len(h.counts) != len(other.counts) {
		return fmt.Errorf("stats: cannot merge histograms with %d and %d buckets", len(h.counts), len(other.counts))
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	h.total += other.total
	return nil
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// PercentChange returns the percent improvement of measured over baseline,
// e.g. baseline 100 cycles, measured 50 cycles -> +100% (twice as fast).
// It follows the paper's Table 3 convention: percent performance improvement
// of execution time ratios.
func PercentChange(baselineCycles, measuredCycles float64) float64 {
	if measuredCycles == 0 {
		return 0
	}
	return (baselineCycles/measuredCycles - 1) * 100
}
