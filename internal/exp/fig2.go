package exp

import (
	"fmt"

	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/textplot"
)

func init() { register("fig2", runFig2) }

// runFig2 reproduces Figure 2: the cumulative distribution of L1D block
// dead-times (cycles between a block's last touch and its eviction),
// measured on the baseline timing model across all benchmarks. The paper's
// headline: over 85% of dead-times exceed the ~200-cycle memory latency,
// which is what gives last-touch prefetching its lookahead. The baseline
// timing cells are shared with table2 and table3.
func runFig2(o Options) (*Report, error) {
	ps, err := o.presets()
	if err != nil {
		return nil, err
	}
	s := o.sched()
	tasks := make([]runner.Task[timingRun], len(ps))
	for i, p := range ps {
		tasks[i] = o.baselineTimingCell(p)
	}
	runs, err := runner.All(o.ctx(), s, tasks)
	if err != nil {
		return nil, err
	}

	merged := stats.NewLog2Histogram(36)
	perBench := textplot.NewTable("benchmark", "evictions", ">64cyc", ">200cyc", ">1Kcyc", ">16Kcyc")
	for i, p := range ps {
		dt := runs[i].DeadTimes
		if err := merged.Merge(dt); err != nil {
			return nil, err
		}
		perBench.AddRow(p.Name,
			textplot.U(dt.Total()),
			textplot.Pct(dt.FractionAbove(64)),
			textplot.Pct(dt.FractionAbove(200)),
			textplot.Pct(dt.FractionAbove(1024)),
			textplot.Pct(dt.FractionAbove(16384)))
		o.progress("fig2 %s done (%d evictions)", p.Name, dt.Total())
	}

	// The figure's x-axis buckets (1, 4, 16, ..., >16384 cycles).
	cdfTab := textplot.NewTable("dead-time <= (cycles)", "CDF of cache blocks")
	cdf := merged.CDF()
	for _, b := range []int{0, 2, 4, 6, 8, 10, 12, 14, 16, 20, 24} {
		if b >= merged.Buckets() {
			break
		}
		cdfTab.AddRow(fmt.Sprintf("%d", merged.UpperBound(b)), textplot.Pct(cdf[b]))
	}
	rep := &Report{
		ID:    "fig2",
		Title: "CDF of L1D block dead-times (cycles between last touch and eviction)",
		Notes: []string{
			fmt.Sprintf("%s of dead-times exceed the 200-cycle memory latency (paper: >85%%)",
				textplot.Pct(merged.FractionAbove(200))),
		},
	}
	rep.AddSection("merged CDF across benchmarks", cdfTab)
	rep.AddSection("per-benchmark dead-time tails", perBench)
	return rep, nil
}
