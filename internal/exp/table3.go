package exp

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dbcp"
	"repro/internal/ghb"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/textplot"
)

func init() { register("table3", runTable3) }

// table3Config is one machine configuration of the comparison.
type table3Config struct {
	name string
	pf   pfSpec              // prefetcher factory + cell fingerprint
	l2   func() cache.Config // nil: paper L2
	perf bool                // perfect L1
}

func table3Configs() []table3Config {
	return []table3Config{
		{name: "Perfect L1", pf: nullPF(), perf: true},
		{name: "LT-cords", pf: ltPF(core.DefaultParams())},
		{name: "GHB", pf: ghbPF(ghb.DefaultParams())},
		// DBCP uses the scaled table: the equivalent, for our workload
		// footprints, of the paper's 2MB table against SPEC footprints.
		{name: "DBCP", pf: dbcpPF(dbcp.ScaledParams())},
		{name: "4MB L2", pf: nullPF(), l2: func() cache.Config { return sim.PaperL2Big() }},
	}
}

// runTable3 reproduces Table 3: percent performance improvement over the
// baseline for Perfect L1, LT-cords, GHB PC/DC, DBCP (2MB table) and a
// quadrupled L2, per benchmark and as suite means. Paper headline ordering:
// Perfect L1 (123%) > LT-cords (60%) > GHB (31%) > DBCP-2MB (17%) ~ 4MB L2
// (16%). The baseline cells are shared with fig2/table2; the LT-cords
// cells with fig12.
func runTable3(o Options) (*Report, error) {
	ps, err := o.presets()
	if err != nil {
		return nil, err
	}
	cfgs := table3Configs()
	s := o.sched()
	// Per preset: one baseline cell followed by one cell per configuration.
	stride := 1 + len(cfgs)
	tasks := make([]runner.Task[timingRun], 0, len(ps)*stride)
	for _, p := range ps {
		tasks = append(tasks, o.baselineTimingCell(p))
		for _, c := range cfgs {
			params := timingParams(p)
			params.PerfectL1 = c.perf
			l2cfg := cache.Config{}
			if c.l2 != nil {
				l2cfg = c.l2()
			}
			tasks = append(tasks, o.timingCell(p, c.pf, params, cache.Config{}, l2cfg))
		}
	}
	runs, err := runner.All(o.ctx(), s, tasks)
	if err != nil {
		return nil, err
	}

	headers := []string{"benchmark", "suite", "base IPC"}
	for _, c := range cfgs {
		headers = append(headers, c.name)
	}
	tab := textplot.NewTable(headers...)

	suiteVals := map[string]map[string][]float64{} // config -> suite -> speedups
	for _, c := range cfgs {
		suiteVals[c.name] = map[string][]float64{}
	}

	for pi, p := range ps {
		base := runs[pi*stride].Res
		row := []string{p.Name, p.Suite, textplot.F2(base.MeasuredIPC())}
		for ci, c := range cfgs {
			r := runs[pi*stride+1+ci].Res
			sp := stats.PercentChange(float64(base.MeasuredCycles()), float64(r.MeasuredCycles()))
			row = append(row, fmt.Sprintf("%+.0f%%", sp))
			suiteVals[c.name][p.Suite] = append(suiteVals[c.name][p.Suite], sp)
			suiteVals[c.name]["overall"] = append(suiteVals[c.name]["overall"], sp)
		}
		tab.AddRow(row...)
		o.progress("table3 %s done", p.Name)
	}
	for _, suite := range []string{"SPECint", "SPECfp", "Olden", "overall"} {
		row := []string{suite + " mean", "", ""}
		for _, c := range cfgs {
			row = append(row, fmt.Sprintf("%+.0f%%", meanSpeedup(suiteVals[c.name][suite])))
		}
		tab.AddRow(row...)
	}
	rep := &Report{
		ID:    "table3",
		Title: "Percent performance improvement over the baseline processor",
	}
	rep.AddSection("", tab)
	rep.Notes = append(rep.Notes,
		"paper ordering to reproduce: Perfect L1 > LT-cords > GHB > DBCP(2MB) ~ 4MB L2 on average",
		"pointer-chasing benchmarks (mcf/em3d/bh-like) are where LT-cords' dead-block placement and MLP help most",
		"delta-friendly low-reuse benchmarks (gap, treeadd) favor GHB; hashed ones (twolf/bzip2) favor the bigger L2")
	return rep, nil
}
