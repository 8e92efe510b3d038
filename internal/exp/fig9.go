package exp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/textplot"
)

func init() { register("fig9", runFig9) }

// fig9Sizes are the signature cache entry counts swept (the paper sweeps
// 128 .. 128K entries with an 8-way cache to reduce conflict bias, and an
// effectively unlimited number of off-chip fragments).
var fig9Sizes = []int{128, 512, 2048, 8192, 32768, 131072}

// fig9Params builds the swept configuration for one entry count.
func fig9Params(n int) core.Params {
	params := core.DefaultParams()
	params.SigCacheEntries = n
	params.SigCacheAssoc = 8 // the paper's sweep uses 8-way
	if params.WindowAhead > n/2 {
		params.WindowAhead = n / 2
		if params.WindowAhead < params.TransferUnit {
			params.WindowAhead = params.TransferUnit
		}
	}
	return params
}

// runFig9 reproduces Figure 9: LT-cords coverage sensitivity to signature
// cache size, normalized to the largest configuration. Paper headline: a
// 32K-signature cache suffices (roughly 20 simultaneously active sequences
// times the +-1K reorder window).
func runFig9(o Options) (*Report, error) {
	if len(o.Benchmarks) == 0 {
		o.Benchmarks = memIntensive
	}
	ps, err := o.presets()
	if err != nil {
		return nil, err
	}
	s := o.sched()
	tasks := make([]runner.Task[ltCov], 0, len(ps)*len(fig9Sizes))
	for _, p := range ps {
		for _, n := range fig9Sizes {
			tasks = append(tasks, o.ltCoverageCell(p, fig9Params(n), sim.Config{}))
		}
	}
	res, err := runner.All(o.ctx(), s, tasks)
	if err != nil {
		return nil, err
	}

	cols := make([][]float64, len(fig9Sizes))
	for pi, p := range ps {
		for i := range fig9Sizes {
			cols[i] = append(cols[i], res[pi*len(fig9Sizes)+i].Cov.CoveragePct())
		}
		o.progress("fig9 %s done", p.Name)
	}
	// Normalize the average curve to its maximum.
	avg := make([]float64, len(cols))
	maxAvg := 0.0
	for i := range cols {
		avg[i] = stats.Mean(cols[i])
		if avg[i] > maxAvg {
			maxAvg = avg[i]
		}
	}
	tab := textplot.NewTable("signature cache entries", "avg coverage", "% of achievable")
	for i, n := range fig9Sizes {
		norm := 0.0
		if maxAvg > 0 {
			norm = avg[i] / maxAvg
		}
		tab.AddRow(fmt.Sprintf("%d", n), textplot.Pct(avg[i]), textplot.Pct(norm))
	}
	rep := &Report{
		ID:    "fig9",
		Title: "Coverage sensitivity to signature cache size (memory-intensive subset)",
	}
	rep.AddSection("", tab)
	rep.Notes = append(rep.Notes,
		"paper shape: coverage saturates around 32K entries",
		fmt.Sprintf("benchmarks: %v", o.Benchmarks))
	return rep, nil
}
