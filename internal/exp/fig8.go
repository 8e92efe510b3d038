package exp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dbcp"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/textplot"
)

func init() { register("fig8", runFig8) }

// runFig8 reproduces Figure 8: per-benchmark coverage and accuracy of
// LT-cords with realistic on-chip storage against a DBCP with an
// unlimited-capacity correlation table (the oracle upper bound). Each
// benchmark reports correct/incorrect/train as percentages of the
// prediction opportunity (they sum to 100%) and early (predictor-induced)
// misses above that. The LT-cords cells are shared with fig11 and the
// ablations; the oracle cells with fig4.
func runFig8(o Options) (*Report, error) {
	ps, err := o.presets()
	if err != nil {
		return nil, err
	}
	s := o.sched()
	ltTasks := make([]runner.Task[ltCov], len(ps))
	orTasks := make([]runner.Task[sim.Coverage], len(ps))
	for i, p := range ps {
		ltTasks[i] = o.ltCoverageCell(p, core.DefaultParams(), sim.Config{})
		orTasks[i] = o.dbcpCoverageCell(p, dbcp.UnlimitedParams(), sim.Config{})
	}
	ltRes, orRes, err := runner.All2(o.ctx(), s, ltTasks, orTasks)
	if err != nil {
		return nil, err
	}

	tab := textplot.NewTable("benchmark",
		"LT correct", "LT incorrect", "LT train", "LT early",
		"DBCPinf correct", "DBCPinf incorrect", "DBCPinf train", "DBCPinf early")
	var ltCovs, orCovs []float64
	for i, p := range ps {
		covLT := ltRes[i].Cov
		covOR := orRes[i]
		tab.AddRow(p.Name,
			textplot.Pct(covLT.CoveragePct()), textplot.Pct(covLT.IncorrectPct()),
			textplot.Pct(covLT.TrainPct()), textplot.Pct(covLT.EarlyPct()),
			textplot.Pct(covOR.CoveragePct()), textplot.Pct(covOR.IncorrectPct()),
			textplot.Pct(covOR.TrainPct()), textplot.Pct(covOR.EarlyPct()))
		ltCovs = append(ltCovs, covLT.CoveragePct())
		orCovs = append(orCovs, covOR.CoveragePct())
		o.progress("fig8 %s: LT %.1f%% vs oracle %.1f%%", p.Name, covLT.CoveragePct()*100, covOR.CoveragePct()*100)
	}
	rep := &Report{
		ID:    "fig8",
		Title: "LT-cords coverage/accuracy vs DBCP with unlimited storage (% of prediction opportunity)",
	}
	rep.AddSection("", tab)
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("mean coverage: LT-cords %s vs unlimited DBCP %s (paper: LT-cords ~matches the oracle; ~69%% of misses eliminated)",
			textplot.Pct(stats.Mean(ltCovs)), textplot.Pct(stats.Mean(orCovs))),
		fmt.Sprintf("LT-cords on-chip budget: %dKB (paper: 214KB)", core.DefaultParams().OnChipBytes()/1024))
	return rep, nil
}
