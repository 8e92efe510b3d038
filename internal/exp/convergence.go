package exp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/textplot"
)

func init() { register("convergence", runConvergence) }

// runConvergence measures LT-cords coverage across execution deciles:
// how quickly the predictor trains and whether steady state is stable.
// This is the methodological companion to the paper's SMARTS setup — the
// cycle-accurate results measure after warm-up, so the training transient
// (visible here in the first deciles) is excluded from speedups.
func runConvergence(o Options) (*Report, error) {
	if len(o.Benchmarks) == 0 {
		o.Benchmarks = []string{"swim", "mcf", "em3d", "art", "ammp", "gzip"}
	}
	ps, err := o.presets()
	if err != nil {
		return nil, err
	}
	s := o.sched()
	tasks := make([]runner.Task[sim.Coverage], len(ps))
	for i, p := range ps {
		tasks[i] = o.decileCell(p, core.DefaultParams())
	}
	res, err := runner.All(o.ctx(), s, tasks)
	if err != nil {
		return nil, err
	}

	headers := []string{"benchmark"}
	for d := 1; d <= 10; d++ {
		headers = append(headers, fmt.Sprintf("d%d", d))
	}
	tab := textplot.NewTable(headers...)
	for i, p := range ps {
		if res[i].Refs == 0 {
			continue
		}
		row := []string{p.Name}
		for d := 0; d < 10; d++ {
			c := res[i].Ctx(d)
			if c.Opportunity == 0 {
				row = append(row, "-")
				continue
			}
			row = append(row, textplot.Pct(c.CoveragePct()))
		}
		tab.AddRow(row...)
		o.progress("convergence %s done", p.Name)
	}
	rep := &Report{
		ID:    "convergence",
		Title: "LT-cords coverage per execution decile (training transient and steady state)",
	}
	rep.AddSection("", tab)
	rep.Notes = append(rep.Notes,
		"first deciles are training (the off-chip sequence is being recorded for the first time);",
		"the paper's timing results measure after SMARTS warm-up, excluding this transient",
		fmt.Sprintf("benchmarks: %v", o.Benchmarks))
	return rep, nil
}
