package sim_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
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
