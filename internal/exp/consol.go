package exp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/textplot"
	"repro/internal/workload"
)

func init() { register("consol", runConsol) }

// consolMixes are the server-consolidation mixes: 2-, 4- and 8-program
// rotations drawn from the fig11 preset pool, mixing high- and
// low-coverage integer and floating point applications.
var consolMixes = []struct {
	name  string
	progs []string
}{
	{"pair", []string{"gcc", "mcf"}},
	{"quad", []string{"gcc", "mcf", "swim", "fma3d"}},
	{"octa", []string{"gcc", "mcf", "swim", "fma3d", "lucas", "gzip", "vortex", "mesa"}},
}

// runConsol scales the paper's Figure 11 multi-programming study to
// server-consolidation scenarios: N programs (N = 2, 4, 8) rotate
// execution with per-program quanta, each on its own cache shard (private
// L1 pair per context), while predictor state is either partitioned per
// context or shared across the whole mix. With partitioned state each
// shard is exactly a standalone run of its program (the equivalence the
// sharded engine is pinned to), so coverage is immune to the mix. The
// shared configuration is the consolidated-server design point the paper
// argues for: one predictor serving every context's private cache.
// Sharing is only sound with context-aware state (core.NewShared): the
// history mirror is banked per context — set indices collide across
// private shards, so an unbanked mirror desyncs immediately — and each
// context records its own last-touch sequence into the shared frame
// storage, since sequences only repeat within one core's miss stream.
// With both banked, shared state retains near-partitioned coverage; the
// residual gap is genuine contention in the shared signature cache and
// direct-mapped frame conflicts between contexts' fragments.
func runConsol(o Options) (*Report, error) {
	quantum := suiteQuantum(o.Scale)

	// One standalone coverage cell per distinct program (shared with
	// fig8/fig11 via the cell cache), plus one sharded cell per
	// (mix, predictor-state) combination.
	soloIdx := map[string]int{}
	s := o.sched()
	var soloTasks []runner.Task[ltCov]
	var mixTasks []runner.Task[sim.ShardedCoverage]
	for _, mix := range consolMixes {
		var progs []workload.ConsolProgram
		for _, name := range mix.progs {
			p, ok := workload.ByName(name)
			if !ok {
				return nil, fmt.Errorf("consol: missing preset %s", name)
			}
			progs = append(progs, workload.ConsolProgram{Preset: p, Quantum: quantum(p)})
			if _, seen := soloIdx[name]; !seen {
				soloIdx[name] = len(soloTasks)
				soloTasks = append(soloTasks, o.ltCoverageCell(s, p, core.DefaultParams(), sim.Config{}))
			}
		}
		mixTasks = append(mixTasks,
			o.consolCoverageCell(s, progs, false, core.DefaultParams()),
			o.consolCoverageCell(s, progs, true, core.DefaultParams()))
	}
	soloRes, mixRes, err := runner.All2(o.ctx(), s, soloTasks, mixTasks)
	if err != nil {
		return nil, err
	}

	tab := textplot.NewTable("mix", "program", "standalone", "partitioned", "shared")
	for mi, mix := range consolMixes {
		part, shared := mixRes[2*mi], mixRes[2*mi+1]
		for ci, name := range mix.progs {
			tab.AddRow(fmt.Sprintf("%s(%d)", mix.name, len(mix.progs)), name,
				textplot.Pct(soloRes[soloIdx[name]].Cov.CoveragePct()),
				textplot.Pct(part.Ctx(ci).CoveragePct()),
				textplot.Pct(shared.Ctx(ci).CoveragePct()))
		}
		tab.AddRow(fmt.Sprintf("%s(%d)", mix.name, len(mix.progs)), "(merged)", "-",
			textplot.Pct(part.CoveragePct()), textplot.Pct(shared.CoveragePct()))
		o.progress("consol %s (%d contexts) done", mix.name, len(mix.progs))
	}
	rep := &Report{
		ID:    "consol",
		Title: "Sharded multi-context coverage under server consolidation (LT-cords coverage per program: standalone vs consolidated with partitioned or shared predictor state)",
	}
	rep.AddSection("", tab)
	rep.Notes = append(rep.Notes,
		"each context owns a private cache shard, so partitioned predictor state keeps every program at standalone-class coverage regardless of mix size",
		"shared predictor state banks the history mirror and the recording stream per context (core.NewShared), so one consolidated predictor retains near-partitioned coverage; the residual gap is contention in the shared signature cache and direct-mapped frame conflicts between contexts")
	return rep, nil
}
