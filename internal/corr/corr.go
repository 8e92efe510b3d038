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
package corr

import (
	"cmp"
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

	// DeadTimes is the eviction dead-time histogram in instruction-clock
	// units (the cycle-accurate Figure 2 variant lives in the timing
	// engine).
	DeadTimes *stats.Log2Histogram
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

// byLastTouch orders evictions by (lastTouch, missIdx), a total order
// since miss indexes are unique.
func byLastTouch(a, b evictRec) int {
	if c := cmp.Compare(a.lastTouch, b.lastTouch); c != 0 {
		return c
	}
	return cmp.Compare(a.missIdx, b.missIdx)
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
		DeadTimes:         stats.NewLog2Histogram(cfg.HistBuckets),
	}

	lastIdx := make(map[MissLabel]uint64, 1<<16)
	var prevLabel MissLabel
	havePrev := false
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
				res.DeadTimes.Add(r.Evicted.DeadTime)
				if len(evicts) < cfg.MaxEvictions {
					if len(evicts) == cap(evicts) {
						// Double: append's 1.25x steps for large slices
						// would allocate about five times the final log.
						evicts = slices.Grow(evicts, max(len(evicts), 1024))
					}
					evicts = append(evicts, evictRec{missIdx: missIdx, lastTouch: r.Evicted.LastTouch})
				}
			}

			if havePrev {
				pX, okX := lastIdx[prevLabel]
				pY, okY := lastIdx[label]
				if okX && okY {
					dist := int64(pY) - int64(pX)
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
				lastIdx[prevLabel] = missIdx - 1
			}
			prevLabel = label
			havePrev = true
		}
	}
	if havePrev {
		lastIdx[prevLabel] = missIdx
	}
	endRun()

	// Figure 7: order evictions by last-touch time and compare against
	// miss order.
	slices.SortFunc(evicts, byLastTouch)
	for i := 1; i < len(evicts); i++ {
		d := int64(evicts[i].missIdx) - int64(evicts[i-1].missIdx)
		if d < 0 {
			d = -d
		}
		res.LastTouchDistHist.Add(uint64(d))
	}
	return res, nil
}
