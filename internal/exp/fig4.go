package exp

import (
	"fmt"

	"repro/internal/dbcp"
	"repro/internal/mem"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/textplot"
)

func init() { register("fig4", runFig4) }

// fig4Sizes are the on-chip correlation table capacities swept. The paper
// sweeps 160KB..320MB against SPEC-sized footprints; our synthetic
// workloads are smaller, so the sweep is shifted down proportionally —
// the shape (coverage collapses at practical sizes, approaches 100% only
// at footprint-proportional sizes) is the reproduced result.
var fig4Sizes = []int{16 * mem.KiB, 64 * mem.KiB, 160 * mem.KiB, 640 * mem.KiB, 2 * mem.MiB, 8 * mem.MiB, 32 * mem.MiB}

// runFig4 reproduces Figure 4: DBCP prefetch coverage as a function of
// on-chip correlation table size, normalized to DBCP with unlimited
// storage; the average and the worst-case benchmark are reported. The
// unlimited-DBCP cells are shared with fig8's oracle bound.
func runFig4(o Options) (*Report, error) {
	ps, err := o.presets()
	if err != nil {
		return nil, err
	}
	s := o.sched()
	// One unlimited cell plus one per finite size, per preset.
	stride := 1 + len(fig4Sizes)
	tasks := make([]runner.Task[sim.Coverage], 0, len(ps)*stride)
	for _, p := range ps {
		tasks = append(tasks, o.dbcpCoverageCell(p, dbcp.UnlimitedParams(), sim.Config{}))
		for _, size := range fig4Sizes {
			pp := dbcp.DefaultParams()
			pp.TableBytes = size
			tasks = append(tasks, o.dbcpCoverageCell(p, pp, sim.Config{}))
		}
	}
	covs, err := runner.All(o.ctx(), s, tasks)
	if err != nil {
		return nil, err
	}

	type row struct {
		name string
		norm []float64 // per size, coverage normalized to unlimited
	}
	var rows []row
	for pi, p := range ps {
		base := covs[pi*stride].CoveragePct()
		r := row{name: p.Name, norm: make([]float64, len(fig4Sizes))}
		for i := range fig4Sizes {
			cov := covs[pi*stride+1+i]
			if base > 0.005 {
				r.norm[i] = cov.CoveragePct() / base
				if r.norm[i] > 1 {
					r.norm[i] = 1
				}
			} else {
				r.norm[i] = 1 // no opportunity: size is irrelevant
			}
		}
		rows = append(rows, r)
		o.progress("fig4 %s done (unlimited coverage %.1f%%)", p.Name, base*100)
	}

	tab := textplot.NewTable("table size", "average", "worst-case")
	worstName := ""
	for i, size := range fig4Sizes {
		var vals []float64
		worst := 1.0
		for _, r := range rows {
			vals = append(vals, r.norm[i])
			if r.norm[i] < worst {
				worst = r.norm[i]
				if i == 0 {
					worstName = r.name
				}
			}
		}
		tab.AddRow(fmtBytes(size), textplot.Pct(stats.Mean(vals)), textplot.Pct(worst))
	}
	rep := &Report{
		ID:    "fig4",
		Title: "DBCP coverage vs on-chip correlation table size, normalized to unlimited DBCP",
	}
	rep.AddSection("percent of achievable coverage", tab)
	rep.Notes = append(rep.Notes,
		"paper shape: negligible coverage at practical sizes, full potential only at footprint-proportional storage",
		fmt.Sprintf("worst-case benchmark at the smallest size: %s", worstName),
	)
	return rep, nil
}

func fmtBytes(b int) string {
	switch {
	case b >= mem.MiB:
		return fmt.Sprintf("%dMB", b/mem.MiB)
	case b >= mem.KiB:
		return fmt.Sprintf("%dKB", b/mem.KiB)
	}
	return fmt.Sprintf("%dB", b)
}
