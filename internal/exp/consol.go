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
// context or shared across the whole mix. Context i of a mix runs its
// program at seed+7i, shifted by i × 4 GiB. With partitioned state each
// shard is exactly a standalone run of that context's stream (the
// equivalence the sharded engine is pinned to), so the partitioned mix is
// the standalone column: it compares each context's own stream alone and
// consolidated, with no difference of seed or placement. The shared
// configuration is the consolidated-server design point the paper argues
// for: one predictor serving every context's private cache.
// Sharing is only sound with context-aware state (core.NewShared): the
// history mirror is banked per context — set indices collide across
// private shards, so an unbanked mirror desyncs immediately — and each
// context records its own last-touch sequence into the shared frame
// storage, since sequences only repeat within one core's miss stream.
// With both banked, shared state retains near-standalone coverage; the
// residual gap is genuine contention in the shared signature cache and
// direct-mapped frame conflicts between contexts' fragments.
func runConsol(o Options) (*Report, error) {
	quantum := suiteQuantum(o.Scale)

	// Per mix, one shared-state cell and one shard cell per context: the
	// partitioned configuration is its contexts' standalone runs, folded
	// in the reduction. Shard keys carry neither the mix nor the quantum,
	// so a context the mixes share (each is a prefix of the next) is
	// simulated once.
	var sharedTasks []runner.Task[sim.ShardedCoverage]
	var shardTasks []runner.Task[sim.Coverage]
	for _, mix := range consolMixes {
		var progs []workload.ConsolProgram
		for ctx, name := range mix.progs {
			p, ok := workload.ByName(name)
			if !ok {
				return nil, fmt.Errorf("consol: missing preset %s", name)
			}
			progs = append(progs, workload.ConsolProgram{Preset: p, Quantum: quantum(p)})
			shardTasks = append(shardTasks, o.shardCoverageCell(p, ctx, core.DefaultParams(), sim.Config{}))
		}
		sharedTasks = append(sharedTasks, o.consolCoverageCell(progs, core.DefaultParams()))
	}
	sharedRes, shardRes, err := runner.All2(o.ctx(), o.sched(), sharedTasks, shardTasks)
	if err != nil {
		return nil, err
	}

	tab := textplot.NewTable("mix", "program", "standalone", "shared")
	for mi, mix := range consolMixes {
		solo, shared := sim.MergeShards(shardRes[:len(mix.progs)]), sharedRes[mi]
		shardRes = shardRes[len(mix.progs):]
		for ci, name := range mix.progs {
			tab.AddRow(fmt.Sprintf("%s(%d)", mix.name, len(mix.progs)), name,
				textplot.Pct(solo.Ctx(ci).CoveragePct()),
				textplot.Pct(shared.Ctx(ci).CoveragePct()))
		}
		tab.AddRow(fmt.Sprintf("%s(%d)", mix.name, len(mix.progs)), "(merged)",
			textplot.Pct(solo.CoveragePct()), textplot.Pct(shared.CoveragePct()))
		o.progress("consol %s (%d contexts) done", mix.name, len(mix.progs))
	}
	rep := &Report{
		ID:    "consol",
		Title: "Sharded multi-context coverage under server consolidation (LT-cords coverage per program: its context's stream alone vs consolidated with shared predictor state)",
	}
	rep.AddSection("", tab)
	rep.Notes = append(rep.Notes,
		"standalone runs each context's own stream (seed+7i, shifted by i x 4 GiB) on a private cache shard with its own predictor: the mix with partitioned predictor state, whose shards equal standalone runs by construction; its (merged) row sums the shards",
		"shared predictor state banks the history mirror and the recording stream per context (core.NewShared), so one consolidated predictor retains near-standalone coverage; the residual gap is contention in the shared signature cache and direct-mapped frame conflicts between contexts")
	return rep, nil
}
