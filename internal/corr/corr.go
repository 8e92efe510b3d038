// Package corr implements the paper's trace-study metrics:
//
//   - Temporal correlation distance (Section 5.1, Figure 6 left): for each
//     pair of consecutive L1D misses, the distance between the previous
//     occurrences of the same two misses in the global miss sequence. +1 is
//     perfect repetition; -1 is a local reversal ({A,B,...,B,A}).
//   - Correlated-sequence lengths (Figure 6 right): runs of consecutive
//     misses whose correlation distance stays within a window, weighted by
//     run length.
//   - Last-touch to cache-miss order disparity (Section 5.2, Figure 7):
//     how far apart, in miss order, the misses corresponding to consecutive
//     last touches land — the reordering LT-cords' signature cache must
//     absorb, since sequences are recorded in miss order but consumed in
//     last-touch order.
//
// A miss is labeled by the tuple (miss PC, miss block address, evicted
// block address), following the paper's footnote 1.
//
// Per miss, Analyze does one hash probe: the miss claims its label's slot
// in an open-addressing index and carries the slot to the next miss,
// which reads both labels' last indexes from their slots and records the
// first one's new index. Figure 7's eviction log is appended in miss
// order and ordered by last touch with a stable radix sort, linear in
// the log. The tests keep the built-in-map and comparison-sort version
// this replaced as a naive reference that Analyze must match exactly.
package corr

import (
	"slices"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/stats"
	"repro/internal/trace"
)

// MissLabel identifies a miss for recurrence matching.
type MissLabel struct {
	PC      mem.Addr
	Block   mem.Addr
	Evicted mem.Addr
}

// Config parameterizes an analysis run.
type Config struct {
	// L1 is the cache whose miss stream is analyzed (default paper L1D).
	L1 cache.Config
	// SeqWindow is the |distance| bound within which a miss counts as
	// correlated for sequence-length runs (paper: +-16).
	SeqWindow int64
	// MaxEvictions caps the evictions retained for the Figure 7 analysis
	// (memory bound); 0 means 4M.
	MaxEvictions int
	// HistBuckets sizes the log2 histograms (0 means 34: up to ~8G).
	HistBuckets int
}

// Result holds the analyses.
type Result struct {
	Refs   uint64
	Misses uint64

	// DistHist is the |temporal correlation distance| histogram over
	// correlated misses (Figure 6 left; uncorrelated misses counted
	// separately).
	DistHist *stats.Log2Histogram
	// PerfectPairs counts misses with correlation distance exactly +1.
	PerfectPairs uint64
	// Uncorrelated counts misses whose pair had no previous occurrence.
	Uncorrelated uint64

	// SeqLenHist is the run-length histogram, each run weighted by its
	// length (Figure 6 right: CDF of correlated misses by sequence length).
	SeqLenHist *stats.Log2Histogram

	// LastTouchDistHist is the |last-touch to miss correlation distance|
	// histogram (Figure 7).
	LastTouchDistHist *stats.Log2Histogram
}

// PerfectFrac is the fraction of misses with distance +1.
func (r Result) PerfectFrac() float64 {
	if r.Misses == 0 {
		return 0
	}
	return float64(r.PerfectPairs) / float64(r.Misses)
}

// UncorrelatedFrac is the fraction of misses with no recurrence.
func (r Result) UncorrelatedFrac() float64 {
	if r.Misses == 0 {
		return 0
	}
	return float64(r.Uncorrelated) / float64(r.Misses)
}

// CorrelatedWithin returns the fraction of all misses whose |distance| is
// at most d.
func (r Result) CorrelatedWithin(d uint64) float64 {
	if r.Misses == 0 {
		return 0
	}
	var below uint64
	for i := 0; i < r.DistHist.Buckets(); i++ {
		if r.DistHist.UpperBound(i) <= d {
			below += r.DistHist.Count(i)
		}
	}
	return float64(below) / float64(r.Misses)
}

// LastTouchWithin returns the fraction of evictions whose last-touch/miss
// order disparity is at most d (the paper: ~98% within 1K).
func (r Result) LastTouchWithin(d uint64) float64 {
	if r.LastTouchDistHist.Total() == 0 {
		return 0
	}
	var below uint64
	for i := 0; i < r.LastTouchDistHist.Buckets(); i++ {
		if r.LastTouchDistHist.UpperBound(i) <= d {
			below += r.LastTouchDistHist.Count(i)
		}
	}
	return float64(below) / float64(r.LastTouchDistHist.Total())
}

type evictRec struct {
	missIdx   uint64
	lastTouch uint64
}

// labelIndex maps each miss label to the last miss index recorded for it:
// open addressing with linear probing over 32-byte slots, so a probe
// reads the key and its value from one cache line, doubling at 3/4 load
// like dbcp's unlimited table (DESIGN.md §9). A miss claims its label's
// slot on first sight and Analyze carries that slot to the next miss,
// which fills in the value, so each miss costs one probe where a
// built-in map cost two lookups and an assign.
type labelIndex struct {
	slots []labelSlot
	shift uint8 // 64 - log2(len(slots)): home takes the top hash bits
	n     int
}

type labelSlot struct {
	label MissLabel
	// follow is the index of the miss that followed the label's latest
	// occurrence, so the label's last index is follow-1. 1 marks a
	// claimed slot no miss has followed yet (miss indexes start at 1, so
	// no miss follows another with index 1), 0 an empty slot. A label
	// counts as seen only once follow > 1.
	follow uint64
}

// labelIndexInitBits sizes the first table at 4K slots (128KB); the Small
// presets grow it to 64K-128K.
const labelIndexInitBits = 12

// home folds the three label fields with distinct odd multipliers and
// takes the top bits of a golden-ratio product (Fibonacci hashing), which
// depend on every input bit: block-aligned addresses have all-zero low
// bits.
func (t *labelIndex) home(l MissLabel) int {
	h := uint64(l.PC)*0xC2B2AE3D27D4EB4F ^ uint64(l.Block) ^ uint64(l.Evicted)*0x165667B19E3779F9
	return int((h * 0x9E3779B97F4A7C15) >> t.shift)
}

// claim returns l's slot, claiming an empty one on first sight. keep is a
// slot index the caller holds (or -1); it comes back at its new place if
// the claim grew the table.
func (t *labelIndex) claim(l MissLabel, keep int) (slot, kept int) {
	mask := len(t.slots) - 1
	i := t.home(l)
	for t.slots[i].follow != 0 {
		if t.slots[i].label == l {
			return i, keep
		}
		i = (i + 1) & mask
	}
	if t.n >= len(t.slots)/4*3 {
		keep = t.grow(keep)
		mask = len(t.slots) - 1
		i = t.home(l)
		for t.slots[i].follow != 0 {
			i = (i + 1) & mask
		}
	}
	t.slots[i] = labelSlot{label: l, follow: 1}
	t.n++
	return i, keep
}

// grow doubles the table, rehashes every claimed slot and returns where
// slot keep (or -1) landed.
func (t *labelIndex) grow(keep int) int {
	old := t.slots
	t.slots = make([]labelSlot, 2*len(old))
	t.shift--
	mask := len(t.slots) - 1
	kept := -1
	for j := range old {
		if old[j].follow == 0 {
			continue
		}
		i := t.home(old[j].label)
		for t.slots[i].follow != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = old[j]
		if j == keep {
			kept = i
		}
	}
	return kept
}

// sortByLastTouch orders the eviction log by (lastTouch, missIdx), a
// total order since miss indexes are unique. The log is appended in miss
// order, so a stable LSD radix sort on lastTouch alone yields it: 16-bit
// digits, only as many passes as the largest key needs, one scratch log
// and one count array. It returns the sorted log, which is either evicts
// or the scratch.
func sortByLastTouch(evicts []evictRec) []evictRec {
	var top uint64
	for _, e := range evicts {
		top |= e.lastTouch
	}
	if len(evicts) < 2 || top == 0 {
		return evicts
	}
	src, dst := evicts, make([]evictRec, len(evicts))
	count := make([]int, 1<<16)
	for shift := uint(0); shift < 64 && top>>shift != 0; shift += 16 {
		clear(count)
		for _, e := range src {
			count[uint16(e.lastTouch>>shift)]++
		}
		sum := 0
		for d, c := range count {
			count[d] = sum
			sum += c
		}
		for _, e := range src {
			d := uint16(e.lastTouch >> shift)
			dst[count[d]] = e
			count[d]++
		}
		src, dst = dst, src
	}
	return src
}

// Analyze runs the miss-stream study over src.
func Analyze(src trace.Source, cfg Config) (Result, error) {
	if cfg.L1.Size == 0 {
		cfg.L1 = cache.Config{Name: "L1D", Size: 64 * mem.KiB, BlockSize: 64, Assoc: 2}
	}
	if cfg.SeqWindow == 0 {
		cfg.SeqWindow = 16
	}
	if cfg.MaxEvictions == 0 {
		cfg.MaxEvictions = 4 << 20
	}
	if cfg.HistBuckets == 0 {
		cfg.HistBuckets = 34
	}
	l1, err := cache.New(cfg.L1)
	if err != nil {
		return Result{}, err
	}
	geo := l1.Geometry()

	res := Result{
		DistHist:          stats.NewLog2Histogram(cfg.HistBuckets),
		SeqLenHist:        stats.NewLog2Histogram(cfg.HistBuckets),
		LastTouchDistHist: stats.NewLog2Histogram(cfg.HistBuckets),
	}

	labels := labelIndex{slots: make([]labelSlot, 1<<labelIndexInitBits), shift: 64 - labelIndexInitBits}
	prev := -1 // the previous miss's label slot
	var missIdx uint64
	var evicts []evictRec

	runLen := uint64(0)
	endRun := func() {
		if runLen > 0 {
			res.SeqLenHist.AddN(runLen, runLen)
			runLen = 0
		}
	}

	// Batch pump (DESIGN.md §7/§9): the batch lanes carry the shared
	// clock rule, each reference goes through the L1 filter on its own —
	// the analysis needs the full per-miss eviction record — and only the
	// misses flow into the correlation bookkeeping below.
	refBuf := make([]trace.Ref, trace.DefaultBatch)
	lanes := trace.NewBatchLanes(trace.DefaultBatch)
	for {
		n := src.ReadRefs(refBuf)
		if n == 0 {
			break
		}
		lanes.Fill(refBuf[:n])
		res.Refs += uint64(n)
		for i := 0; i < n; i++ {
			r := l1.Access(lanes.Addrs[i], lanes.Writes[i], lanes.Nows[i])
			if r.Hit {
				continue
			}
			missIdx++
			res.Misses++
			label := MissLabel{PC: refBuf[i].PC, Block: geo.BlockAddr(lanes.Addrs[i])}
			if r.Evicted.Valid {
				label.Evicted = r.Evicted.Addr
				if len(evicts) < cfg.MaxEvictions {
					if len(evicts) == cap(evicts) {
						// Double: append's 1.25x steps for large slices
						// would allocate about five times the final log.
						evicts = slices.Grow(evicts, max(len(evicts), 1024))
					}
					evicts = append(evicts, evictRec{missIdx: missIdx, lastTouch: r.Evicted.LastTouch})
				}
			}

			cur, last := labels.claim(label, prev) // last: prev, moved by any growth
			if last >= 0 {
				// The pair (previous miss, this miss) recurs when both
				// labels were seen before; their distance is that of
				// their last indexes, follow-1 each.
				fX, fY := labels.slots[last].follow, labels.slots[cur].follow
				if fX > 1 && fY > 1 {
					dist := int64(fY) - int64(fX)
					if dist == 1 {
						res.PerfectPairs++
					}
					ad := dist
					if ad < 0 {
						ad = -ad
					}
					res.DistHist.Add(uint64(ad))
					if ad <= cfg.SeqWindow {
						runLen++
					} else {
						endRun()
					}
				} else {
					res.Uncorrelated++
					endRun()
				}
				labels.slots[last].follow = missIdx
			}
			prev = cur
		}
	}
	endRun()

	// Figure 7: order evictions by last-touch time and compare against
	// miss order.
	evicts = sortByLastTouch(evicts)
	for i := 1; i < len(evicts); i++ {
		d := int64(evicts[i].missIdx) - int64(evicts[i-1].missIdx)
		if d < 0 {
			d = -d
		}
		res.LastTouchDistHist.Add(uint64(d))
	}
	return res, nil
}
