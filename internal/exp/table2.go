package exp

import (
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/textplot"
)

func init() { register("table2", runTable2) }

// runTable2 reproduces Table 2: per-benchmark base L1D and L2 miss rates
// (trace-driven) and base IPC (timing model, no predictor). The timing
// cells are shared with fig2 and table3.
func runTable2(o Options) (*Report, error) {
	ps, err := o.presets()
	if err != nil {
		return nil, err
	}
	s := o.sched()
	missTasks := make([]runner.Task[missRates], len(ps))
	timingTasks := make([]runner.Task[timingRun], len(ps))
	for i, p := range ps {
		missTasks[i] = o.missRateCell(p, sim.PaperL1D(), sim.PaperL2())
		timingTasks[i] = o.baselineTimingCell(p)
	}
	misses, runs, err := runner.All2(o.ctx(), s, missTasks, timingTasks)
	if err != nil {
		return nil, err
	}

	tab := textplot.NewTable("benchmark", "suite", "L1 miss %", "L2 miss %", "IPC")
	for i, p := range ps {
		tab.AddRow(p.Name, p.Suite,
			textplot.F1(misses[i].L1*100),
			textplot.F1(misses[i].L2*100),
			textplot.F2(runs[i].Res.IPC()))
		o.progress("table2 %s done", p.Name)
	}
	rep := &Report{
		ID:    "table2",
		Title: "Benchmarks, base miss rates and IPCs (baseline configuration)",
	}
	rep.AddSection("", tab)
	rep.Notes = append(rep.Notes,
		"synthetic stand-ins target the paper's per-benchmark miss-rate classes, not exact values (DESIGN.md §5)")
	return rep, nil
}
