package exp

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/textplot"
)

func init() { register("fig12", runFig12) }

// runFig12 reproduces Figure 12: memory bus utilization with LT-cords,
// normalized to bytes per instruction, decomposed into base data (demand
// block transfers plus useful prefetches), incorrect predictions
// (never-used prefetch transfers), sequence creation (off-chip signature
// writes and confidence updates), and sequence fetch (signature streaming).
// Paper headline: average overhead is small — 17% for applications above
// 1 byte/instruction, at most ~15% extra traffic for bandwidth-hungry
// applications. The timing cells are shared with table3's LT-cords column.
func runFig12(o Options) (*Report, error) {
	ps, err := o.presets()
	if err != nil {
		return nil, err
	}
	s := o.sched()
	tasks := make([]runner.Task[timingRun], len(ps))
	for i, p := range ps {
		tasks[i] = o.timingCell(p, ltPF(core.DefaultParams()),
			timingParams(p), cache.Config{}, cache.Config{})
	}
	runs, err := runner.All(o.ctx(), s, tasks)
	if err != nil {
		return nil, err
	}

	tab := textplot.NewTable("benchmark", "base B/i", "incorrect B/i", "seq-create B/i", "seq-fetch B/i", "total B/i", "overhead")
	var overheads []float64
	for i, p := range ps {
		r := runs[i].Res
		instr := float64(r.Instrs)
		base := float64(r.BytesBaseData) / instr
		inc := float64(r.BytesIncorrect) / instr
		sw := float64(r.BytesSeqWrite) / instr
		sf := float64(r.BytesSeqFetch) / instr
		total := base + inc + sw + sf
		ovh := 0.0
		if base > 0 {
			ovh = (inc + sw + sf) / base
		}
		if base >= 1.0 { // the paper reports overhead for >1 byte/instruction apps
			overheads = append(overheads, ovh)
		}
		tab.AddRow(p.Name, textplot.F2(base), textplot.F2(inc), textplot.F2(sw), textplot.F2(sf),
			textplot.F2(total), textplot.Pct(ovh))
		o.progress("fig12 %s done (%.2f B/i total)", p.Name, total)
	}
	rep := &Report{
		ID:    "fig12",
		Title: "LT-cords memory system utilization (bytes per instruction by category)",
	}
	rep.AddSection("", tab)
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("mean overhead over base traffic: %s (paper: ~17%% for >1B/i apps, <=15%% worst case for bandwidth-hungry apps)",
			textplot.Pct(stats.Mean(overheads))))
	return rep, nil
}
