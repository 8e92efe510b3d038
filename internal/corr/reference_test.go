package corr

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// byLastTouch orders evictions by (lastTouch, missIdx), a total order
// since miss indexes are unique.
func byLastTouch(a, b evictRec) int {
	if c := cmp.Compare(a.lastTouch, b.lastTouch); c != 0 {
		return c
	}
	return cmp.Compare(a.missIdx, b.missIdx)
}

// analyzeReference is Analyze as it stood with a built-in map for the
// label index and a comparison sort for Figure 7, kept verbatim as the
// deliberately naive reference the fast path must match bit for bit.
func analyzeReference(src trace.Source, cfg Config) (Result, error) {
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

// Every preset at Small, at two seeds: the fast path's Result equals the
// reference's in every field and every histogram bucket, and counts
// every miss exactly once. Under -short one seed runs.
func TestAnalyzeMatchesReference(t *testing.T) {
	seeds := []uint64{1, 2}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, p := range workload.Presets() {
		for _, seed := range seeds {
			t.Run(fmt.Sprintf("%s_seed%d", p.Name, seed), func(t *testing.T) {
				m := trace.Materialize(p.Source(workload.Small, seed))
				got, err := Analyze(m.Cursor(), Config{})
				if err != nil {
					t.Fatal(err)
				}
				want, err := analyzeReference(m.Cursor(), Config{})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("\nAnalyze   %s\nreference %s", describe(got), describe(want))
				}
				checkConservation(t, got, 16)
			})
		}
	}
}

// FuzzAnalyzeMatchesReference drives both paths over short random streams
// through a 4-line L1 (2 sets of 2 ways), with 4 PCs and 8 blocks so that
// labels recur and pairs repeat, and with small MaxEvictions and
// power-of-two SeqWindow values so that the log cap and run boundaries
// are reached. Each input byte pair is one reference: the first picks
// PC, block and kind, the second is the gap, so the clock, and with it
// lastTouch, can pass 2^16 and take a second radix pass.
func FuzzAnalyzeMatchesReference(f *testing.F) {
	// Three blocks cycling through one 2-way set under two PCs: every
	// access misses, labels recur every 6 misses (every 3 if the PC were
	// dropped), and gaps of 128-255 take the clock past 2^16.
	cyclic := make([]byte, 0, 768)
	for i := 0; i < 384; i++ {
		cyclic = append(cyclic, byte(i%3)<<3|byte(i%2), byte(i*37)|0x80)
	}
	f.Add(cyclic, uint8(0), uint8(4))
	f.Add(cyclic, uint8(7), uint8(0))
	f.Add([]byte{0, 255, 4, 255, 8, 255, 12, 255, 0, 255, 4, 255, 8, 255, 12, 255}, uint8(2), uint8(1))
	f.Add([]byte{}, uint8(1), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, maxEvictions, window uint8) {
		refs := make([]trace.Ref, 0, len(data)/2)
		for i := 0; i+1 < len(data); i += 2 {
			b := data[i]
			r := trace.Ref{PC: 0x400 + mem.Addr(b&3)*4, Addr: 0x10000 + mem.Addr(b>>2&7)*64, Gap: data[i+1]}
			if b&0x20 != 0 {
				r.Kind = trace.Store
			}
			refs = append(refs, r)
		}
		cfg := Config{
			L1:           cache.Config{Name: "tiny", Size: 256, BlockSize: 64, Assoc: 2},
			MaxEvictions: int(maxEvictions % 16), // 0 means the 4M default
			SeqWindow:    1 << (window % 5),
		}
		got, err := Analyze(trace.NewSliceSource(refs), cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := analyzeReference(trace.NewSliceSource(refs), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("\nAnalyze   %s\nreference %s", describe(got), describe(want))
		}
		checkConservation(t, got, cfg.SeqWindow)
	})
}

// describe prints every Result field, histograms as bucket counts.
func describe(r Result) string {
	counts := func(h *stats.Log2Histogram) []uint64 {
		c := make([]uint64, h.Buckets())
		for i := range c {
			c[i] = h.Count(i)
		}
		return c
	}
	return fmt.Sprintf("refs %d misses %d perfect %d uncorrelated %d dist %v seqlen %v lasttouch %v",
		r.Refs, r.Misses, r.PerfectPairs, r.Uncorrelated,
		counts(r.DistHist), counts(r.SeqLenHist), counts(r.LastTouchDistHist))
}
