package exp

import (
	"fmt"

	"repro/internal/corr"
	"repro/internal/runner"
	"repro/internal/textplot"
)

func init() {
	register("fig6left", runFig6Left)
	register("fig6right", runFig6Right)
}

// analyzeAll runs the corr study once per benchmark. The cells are shared
// by fig6left, fig6right and fig7: within one scheduler each benchmark is
// analyzed exactly once.
func analyzeAll(o Options) (map[string]corr.Result, []string, error) {
	ps, err := o.presets()
	if err != nil {
		return nil, nil, err
	}
	s := o.sched()
	tasks := make([]runner.Task[corr.Result], len(ps))
	for i, p := range ps {
		tasks[i] = o.corrCell(p, corr.Config{})
	}
	res, err := runner.All(o.ctx(), s, tasks)
	if err != nil {
		return nil, nil, err
	}
	out := map[string]corr.Result{}
	var order []string
	for i, p := range ps {
		r := res[i]
		out[p.Name] = r
		order = append(order, p.Name)
		o.progress("corr %s done (%d misses, perfect %.1f%%)", p.Name, r.Misses, r.PerfectFrac()*100)
	}
	return out, order, nil
}

// runFig6Left reproduces Figure 6 (left): the CDF of absolute temporal
// correlation distances of all cache misses. The paper's headline: 15 of
// 28 applications exhibit nearly perfect temporal correlation; hashed
// applications (gzip, bzip2, twolf) exhibit none.
func runFig6Left(o Options) (*Report, error) {
	res, order, err := analyzeAll(o)
	if err != nil {
		return nil, err
	}
	tab := textplot.NewTable("benchmark", "dist=+1", "|d|<=16", "|d|<=256", "uncorrelated")
	nearPerfect := 0
	for _, name := range order {
		r := res[name]
		tab.AddRow(name,
			textplot.Pct(r.PerfectFrac()),
			textplot.Pct(r.CorrelatedWithin(16)),
			textplot.Pct(r.CorrelatedWithin(256)),
			textplot.Pct(r.UncorrelatedFrac()))
		if r.PerfectFrac() > 0.55 {
			nearPerfect++
		}
	}
	rep := &Report{
		ID:    "fig6left",
		Title: "Absolute temporal correlation distance of L1D misses (CDF columns)",
	}
	rep.AddSection("", tab)
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("%d/%d benchmarks strongly correlated (dist=+1 majority class; paper: 15/28 nearly perfect)", nearPerfect, len(order)),
		"hashed benchmarks (gzip, bzip2, twolf) should show ~0% correlation")
	return rep, nil
}

// runFig6Right reproduces Figure 6 (right): for applications with more
// than 5% uncorrelated misses, the CDF of correlated misses by the length
// of the correlated sequence they belong to. The paper's headline: even
// for imperfectly correlated applications, correlated misses concentrate
// in long sequences (mcf: 80% in sequences longer than 2K).
func runFig6Right(o Options) (*Report, error) {
	res, order, err := analyzeAll(o)
	if err != nil {
		return nil, err
	}
	tab := textplot.NewTable("benchmark", "uncorr", ">128", ">512", ">2K", ">8K", ">32K")
	shown := 0
	for _, name := range order {
		r := res[name]
		if r.UncorrelatedFrac() <= 0.05 || r.SeqLenHist.Total() == 0 {
			continue
		}
		shown++
		tab.AddRow(name,
			textplot.Pct(r.UncorrelatedFrac()),
			textplot.Pct(r.SeqLenHist.FractionAbove(128)),
			textplot.Pct(r.SeqLenHist.FractionAbove(512)),
			textplot.Pct(r.SeqLenHist.FractionAbove(2048)),
			textplot.Pct(r.SeqLenHist.FractionAbove(8192)),
			textplot.Pct(r.SeqLenHist.FractionAbove(32768)))
	}
	rep := &Report{
		ID:    "fig6right",
		Title: "Correlated-sequence lengths for apps with >5% uncorrelated misses (fraction of correlated misses in sequences longer than N)",
	}
	rep.AddSection("", tab)
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("%d benchmarks exceed the 5%% uncorrelated threshold", shown),
		"paper shape: a large fraction of correlated misses belong to long sequences")
	return rep, nil
}
