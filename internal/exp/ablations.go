package exp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/textplot"
)

func init() { register("ablations", runAblations) }

// ablation is one LT-cords design-choice variation.
type ablation struct {
	name   string
	mutate func(*core.Params)
}

func ablations() []ablation {
	return []ablation{
		{"default (paper §5.6)", func(p *core.Params) {}},
		// Confidence counters initialized to 0 instead of 2: the paper
		// initializes to 2 "to expedite training".
		{"conf-init=0", func(p *core.Params) { p.ConfInit = 0 }},
		// Signature cache associativity.
		{"sigcache 1-way", func(p *core.Params) { p.SigCacheAssoc = 1 }},
		{"sigcache 8-way", func(p *core.Params) { p.SigCacheAssoc = 8 }},
		// Fragment size (storage-efficiency vs tag-array size trade-off,
		// Section 5.4: minimal sensitivity up to 8K signatures).
		{"fragment=1K sigs", func(p *core.Params) { p.FragmentSigs = 1024 }},
		{"fragment=2K sigs", func(p *core.Params) { p.FragmentSigs = 2048 }},
		// Off-chip transfer unit (write combining / window granularity).
		{"transfer=8 sigs", func(p *core.Params) { p.TransferUnit = 8 }},
		{"transfer=128 sigs", func(p *core.Params) { p.TransferUnit = 128 }},
		// Head lookahead distance (Section 4.2: "several hundred").
		{"head-lookahead=32", func(p *core.Params) { p.HeadLookahead = 32 }},
		{"head-lookahead=1024", func(p *core.Params) { p.HeadLookahead = 1024 }},
		// Streaming window (reordering tolerance, Section 3.2/5.2).
		{"window=128", func(p *core.Params) { p.WindowAhead = 128 }},
		{"window=4096", func(p *core.Params) { p.WindowAhead = 4096 }},
		// Signature width: the paper's timing configuration narrows the
		// trace-driven 32-bit signatures to 23 bits (Section 5.6); hash
		// collisions then cause occasional false last-touch matches.
		{"sig=23bit", func(p *core.Params) { p.SigBits = 23 }},
		{"sig=16bit", func(p *core.Params) { p.SigBits = 16 }},
		// Prefetch target: streaming into the L2 instead of dead-block
		// placement in the L1D gives up the paper's L1-placement advantage
		// (L1-coverage drops to ~0; only off-chip latency is hidden).
		{"into-L2", func(p *core.Params) { p.TargetL2 = true }},
	}
}

// runAblations measures coverage impact of LT-cords design choices on the
// memory-intensive subset, validating the paper's parameter discussion.
// The default variant's cells are shared with fig8/fig11; the 8-way and
// fragment=2K variants coincide with points of the fig9/fig10 sweeps.
func runAblations(o Options) (*Report, error) {
	if len(o.Benchmarks) == 0 {
		o.Benchmarks = []string{"applu", "art", "em3d", "mcf", "swim"}
	}
	ps, err := o.presets()
	if err != nil {
		return nil, err
	}
	abls := ablations()
	s := o.sched()
	tasks := make([]runner.Task[ltCov], 0, len(abls)*len(ps))
	for _, a := range abls {
		params := core.DefaultParams()
		a.mutate(&params)
		if err := params.Validate(); err != nil {
			return nil, fmt.Errorf("ablation %q: %w", a.name, err)
		}
		for _, p := range ps {
			tasks = append(tasks, o.ltCoverageCell(p, params, sim.Config{}))
		}
	}
	res, err := runner.All(o.ctx(), s, tasks)
	if err != nil {
		return nil, err
	}

	tab := textplot.NewTable("variant", "mean coverage", "mean early", "seq-fetch B/miss")
	for ai, a := range abls {
		var covs, earlies, fetchPerMiss []float64
		for pi := range ps {
			r := res[ai*len(ps)+pi]
			covs = append(covs, r.Cov.CoveragePct())
			earlies = append(earlies, r.Cov.EarlyPct())
			if r.Cov.Opportunity > 0 {
				fetchPerMiss = append(fetchPerMiss, float64(r.SeqFetch)/float64(r.Cov.Opportunity))
			}
		}
		tab.AddRow(a.name, textplot.Pct(stats.Mean(covs)), textplot.Pct(stats.Mean(earlies)),
			textplot.F2(stats.Mean(fetchPerMiss)))
		o.progress("ablation %q done", a.name)
	}
	rep := &Report{
		ID:    "ablations",
		Title: "LT-cords design-choice ablations (memory-intensive subset)",
	}
	rep.AddSection("", tab)
	rep.Notes = append(rep.Notes,
		"expected: conf-init=0 slows training; tiny head lookahead hurts streaming timeliness;",
		"fragment size has modest impact (paper: <2% up to 8K sigs); window size trades coverage against fetch traffic")
	return rep, nil
}
