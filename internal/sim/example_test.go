package sim_test

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Example demonstrates the two-call API: build a predictor against the
// paper's L1D, then drive a reference stream through the coverage harness.
func Example() {
	src := workload.ArraySweep(workload.SweepConfig{
		Base: 0x10000000, Arrays: 1, Elems: 16384, Stride: 64, Iters: 6, PCBase: 0x400,
	})
	lt := core.MustNew(sim.PaperL1D(), core.DefaultParams())
	cov, err := sim.RunCoverage(src, lt, sim.Config{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("opportunity=%d coverage above 70%%: %v\n",
		cov.Opportunity, cov.CoveragePct() > 0.7)
	// Output:
	// opportunity=98304 coverage above 70%: true
}

// ExampleRunCoverage_baseline shows that the Null predictor leaves the
// base system untouched: every base miss classifies as training.
func ExampleRunCoverage_baseline() {
	src := workload.ArraySweep(workload.SweepConfig{
		Base: 0x10000000, Arrays: 1, Elems: 4096, Stride: 64, Iters: 2, PCBase: 0x400,
	})
	cov, err := sim.RunCoverage(src, sim.Null{}, sim.Config{})
	if err != nil {
		panic(err)
	}
	fmt.Println(cov.Opportunity == cov.Train, cov.Correct, cov.Early)
	// Output:
	// true 0 0
}

// nextN prefetches the N blocks following every miss: the classic
// sequential (one-block-lookahead generalized) prefetcher.
type nextN struct {
	geo mem.Geometry
	n   int
}

// Name implements sim.Prefetcher.
func (p *nextN) Name() string { return fmt.Sprintf("next-%d", p.n) }

// OnAccess implements sim.Prefetcher: on a miss, append the next n blocks
// to the harness's scratch buffer.
func (p *nextN) OnAccess(ref trace.Ref, hit bool, evicted *cache.EvictInfo, preds []sim.Prediction) []sim.Prediction {
	if hit {
		return preds
	}
	blk := p.geo.BlockAddr(ref.Addr)
	for i := 0; i < p.n; i++ {
		preds = append(preds, sim.Prediction{Addr: blk + mem.Addr((i+1)*p.geo.BlockSize())})
	}
	return preds
}

// Example_customPredictor plugs a home-grown scheme into the same harness
// as LT-cords: the sim.Prefetcher interface is a few small hooks. A
// next-2-blocks sequential prefetcher races LT-cords on a stream it can
// guess and on a shuffled pointer chase it cannot.
func Example_customPredictor() {
	l1 := sim.PaperL1D()
	geo, err := mem.NewGeometry(l1.BlockSize, l1.Sets())
	if err != nil {
		panic(err)
	}
	workloads := []struct {
		name string
		src  func() trace.Source
	}{
		{"sequential stream", func() trace.Source {
			return workload.StreamOnce(workload.StreamConfig{
				Base: 0x1000_0000, Bytes: 4 << 20, Stride: 64, Passes: 2, PCBase: 0x40,
			})
		}},
		{"shuffled chase", func() trace.Source {
			// A fully scrambled layout (no page clustering): sequential
			// neighbors are unrelated, so guessing-based prefetchers have
			// nothing to work with.
			return workload.PointerChase(workload.ChaseConfig{
				Base: 0x1000_0000, Nodes: 20_000, NodeSize: 64,
				ShuffleLayout: true, Iters: 4, PCBase: 0x40, Seed: 7,
			})
		}},
	}
	for _, w := range workloads {
		fmt.Printf("%s:\n", w.name)
		for _, pf := range []sim.Prefetcher{
			&nextN{geo: geo, n: 2},
			core.MustNew(l1, core.DefaultParams()),
		} {
			cov, err := sim.RunCoverage(w.src(), pf, sim.Config{})
			if err != nil {
				panic(err)
			}
			fmt.Printf("  %-10s coverage %5.1f%%  early %4.1f%%\n",
				pf.Name(), cov.CoveragePct()*100, cov.EarlyPct()*100)
		}
	}
	fmt.Println("\nsequential prefetching wins on streams it can guess;")
	fmt.Println("address correlation wins where there is nothing to guess, only to remember.")
	// Output:
	// sequential stream:
	//   next-2     coverage  66.7%  early  0.0%
	//   lt-cords   coverage   0.0%  early  0.0%
	// shuffled chase:
	//   next-2     coverage   3.3%  early  0.0%
	//   lt-cords   coverage  61.2%  early  0.0%
	//
	// sequential prefetching wins on streams it can guess;
	// address correlation wins where there is nothing to guess, only to remember.
}
