package corr

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/workload"
)

// checkConservation asserts that a Result counts every miss exactly once:
// each miss after the first has a correlation distance or is
// uncorrelated, and the sequence-length runs hold exactly the misses
// whose distance is within window. window must be a power of two, so
// that it is a log2 bucket bound.
func checkConservation(t *testing.T, r Result, window int64) {
	t.Helper()
	if pairs := max(r.Misses, 1) - 1; r.DistHist.Total()+r.Uncorrelated != pairs {
		t.Errorf("%d distances + %d uncorrelated != %d consecutive miss pairs",
			r.DistHist.Total(), r.Uncorrelated, pairs)
	}
	var within uint64
	for i := 0; i < r.DistHist.Buckets(); i++ {
		if r.DistHist.UpperBound(i) <= uint64(window) {
			within += r.DistHist.Count(i)
		}
	}
	if r.SeqLenHist.Total() != within {
		t.Errorf("sequence runs hold %d misses, %d have |distance| <= %d",
			r.SeqLenHist.Total(), within, window)
	}
}

// BenchmarkAnalyze measures one Analyze call per op over a materialized
// Small trace: replay, the L1 filter and the miss bookkeeping.
func BenchmarkAnalyze(b *testing.B) {
	for _, name := range []string{"mcf", "swim", "em3d", "gzip"} {
		p, _ := workload.ByName(name)
		m := trace.Materialize(p.Source(workload.Small, 1))
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Analyze(m.Cursor(), Config{}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(m.Refs()), "ns/ref")
		})
	}
}

func analyze(t *testing.T, src trace.Source) Result {
	t.Helper()
	r, err := Analyze(src, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// A perfectly repeating sweep: after training, consecutive miss pairs
// recur in exactly the same order, so most misses have distance +1.
func TestPerfectCorrelationOnSweep(t *testing.T) {
	src := workload.ArraySweep(workload.SweepConfig{
		Base: 0x100000, Arrays: 1, Elems: 16384, Stride: 64, Iters: 6, PCBase: 0x10,
	})
	r := analyze(t, src)
	t.Logf("sweep: misses=%d perfect=%.2f uncorrelated=%.2f within16=%.2f",
		r.Misses, r.PerfectFrac(), r.UncorrelatedFrac(), r.CorrelatedWithin(16))
	if r.PerfectFrac() < 0.7 {
		t.Errorf("perfect fraction %.2f too low for a repeating sweep", r.PerfectFrac())
	}
	if r.UncorrelatedFrac() > 0.25 {
		t.Errorf("uncorrelated fraction %.2f too high", r.UncorrelatedFrac())
	}
}

// Random accesses: misses should be essentially uncorrelated.
func TestNoCorrelationOnHash(t *testing.T) {
	src := workload.HashAccess(workload.HashConfig{
		Base: 0x100000, Footprint: 4 << 20, Refs: 500_000, PCs: 16, PCBase: 0x10, Seed: 5,
	})
	r := analyze(t, src)
	t.Logf("hash: misses=%d perfect=%.3f uncorrelated=%.2f", r.Misses, r.PerfectFrac(), r.UncorrelatedFrac())
	if r.PerfectFrac() > 0.05 {
		t.Errorf("hash workload shows %.3f perfect correlation", r.PerfectFrac())
	}
}

// A gently perturbed sweep sits between the extremes. The metric is very
// sensitive: the miss label includes the evicted block, so a single swap
// upstream decorrelates several downstream misses.
func TestPartialCorrelation(t *testing.T) {
	src := workload.PerturbedSweep(workload.PerturbedSweepConfig{
		Base: 0x100000, Elems: 24576, Stride: 64, Iters: 6, PerturbFrac: 0.04,
		ShuffledStart: true, PCBase: 0x10, Seed: 7,
	})
	r := analyze(t, src)
	t.Logf("perturbed: perfect=%.2f uncorrelated=%.2f", r.PerfectFrac(), r.UncorrelatedFrac())
	if r.PerfectFrac() < 0.15 || r.PerfectFrac() > 0.9 {
		t.Errorf("perturbed sweep perfect fraction %.2f outside partial band", r.PerfectFrac())
	}
	if r.UncorrelatedFrac() > 0.8 {
		t.Errorf("perturbed sweep uncorrelated fraction %.2f too high", r.UncorrelatedFrac())
	}
}

// The Figure 7 property: when components with different set-turnover rates
// interleave, last-touch order diverges locally from miss order (the
// paper's {A1,B1,B2,A2} example), but stays within a bounded window. A pure
// sweep has no reordering (every block's last touch is its only touch), so
// a mixed workload exercises the disparity.
func TestLastTouchOrderDisparity(t *testing.T) {
	fast := workload.ArraySweep(workload.SweepConfig{
		Base: 0x100000, Arrays: 1, Elems: 16384, Stride: 64, Iters: 4, PCBase: 0x10,
	})
	slow := workload.ArraySweep(workload.SweepConfig{
		Base: 0x8000000, Arrays: 1, Elems: 4096, Stride: 256, Iters: 16, PCBase: 0x90,
	})
	src := workload.Mix(64, workload.Component{Src: fast, Weight: 3}, workload.Component{Src: slow, Weight: 1})
	r := analyze(t, src)
	w1 := r.LastTouchWithin(1)
	w1k := r.LastTouchWithin(1024)
	t.Logf("last-touch disparity: within1=%.2f within1K=%.2f", w1, w1k)
	if w1k < 0.9 {
		t.Errorf("within-1K fraction %.2f; the paper's mechanism needs ~98%%", w1k)
	}
	if w1 >= 0.999 {
		t.Error("some reordering should exist in a mixed workload")
	}
}

// A pure single-sweep control: last-touch order equals miss order exactly.
func TestLastTouchOrderPureSweepInOrder(t *testing.T) {
	src := workload.ArraySweep(workload.SweepConfig{
		Base: 0x100000, Arrays: 1, Elems: 16384, Stride: 64, Iters: 3, PCBase: 0x10,
	})
	r := analyze(t, src)
	if got := r.LastTouchWithin(1); got < 0.999 {
		t.Errorf("pure sweep should be perfectly ordered, within1=%.3f", got)
	}
}

// Long correlated sequences on a repeating workload: the run-length CDF
// should concentrate mass in long runs.
func TestSequenceLengths(t *testing.T) {
	src := workload.ArraySweep(workload.SweepConfig{
		Base: 0x100000, Arrays: 1, Elems: 8192, Stride: 64, Iters: 8, PCBase: 0x10,
	})
	r := analyze(t, src)
	if r.SeqLenHist.Total() == 0 {
		t.Fatal("no correlated runs recorded")
	}
	// Most correlated misses should sit in runs longer than 512.
	if got := r.SeqLenHist.FractionAbove(512); got < 0.8 {
		t.Errorf("fraction of correlated misses in runs >512 = %.2f", got)
	}
}

func TestEmptySource(t *testing.T) {
	r := analyze(t, trace.NewSliceSource(nil))
	if r.Misses != 0 || r.PerfectFrac() != 0 || r.UncorrelatedFrac() != 0 {
		t.Error("empty source must produce zero results")
	}
	if r.CorrelatedWithin(16) != 0 || r.LastTouchWithin(1) != 0 {
		t.Error("empty fractions must be 0")
	}
}

// Hand-crafted check of the distance metric: the sequence
// A B C A B C has pairs (A,B) and (B,C) recurring at distance +1.
func TestDistanceMetricByHand(t *testing.T) {
	// Direct-mapped tiny cache: 2 sets of 1 way, 64B blocks. Blocks X0, X1
	// map to set 0; accessing X0, X1 alternately makes every access a miss
	// with a deterministic eviction.
	mk := func(n int) []trace.Ref {
		var refs []trace.Ref
		for i := 0; i < n; i++ {
			refs = append(refs, trace.Ref{PC: 0x10, Addr: mem.Addr(0x100000 + (i%3)*128)})
		}
		return refs
	}
	cfg := Config{}
	cfg.L1.Name, cfg.L1.Size, cfg.L1.BlockSize, cfg.L1.Assoc = "dm", 128, 64, 1
	r, err := Analyze(trace.NewSliceSource(mk(30)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Cycle of three conflicting blocks through set 0 (stride 128 on a
	// 2-set cache): steady repetition, so perfect correlation dominates.
	if r.PerfectFrac() < 0.5 {
		t.Errorf("hand sequence perfect frac = %.2f", r.PerfectFrac())
	}
}
