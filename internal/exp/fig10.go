package exp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/textplot"
)

func init() { register("fig10", runFig10) }

// fig10Frames sweeps off-chip sequence storage capacity via the frame
// count (fragment size fixed at 2K signatures for resolution at our
// workload scale; the paper sweeps 2M..32M signatures against SPEC-sized
// footprints — the reproduced shape is coverage growing with storage and
// the storage-hungry benchmarks needing the largest configuration).
var fig10Frames = []int{16, 64, 256, 1024, 4096}

// runFig10 reproduces Figure 10: off-chip sequence storage needed to reach
// a given coverage, for the most storage-hungry benchmarks.
func runFig10(o Options) (*Report, error) {
	if len(o.Benchmarks) == 0 {
		o.Benchmarks = memIntensive
	}
	ps, err := o.presets()
	if err != nil {
		return nil, err
	}
	s := o.sched()
	tasks := make([]runner.Task[ltCov], 0, len(ps)*len(fig10Frames))
	for _, p := range ps {
		for _, frames := range fig10Frames {
			params := core.DefaultParams()
			params.Frames = frames
			params.FragmentSigs = 2048
			tasks = append(tasks, o.ltCoverageCell(p, params, sim.Config{}))
		}
	}
	res, err := runner.All(o.ctx(), s, tasks)
	if err != nil {
		return nil, err
	}

	headers := []string{"benchmark"}
	for _, f := range fig10Frames {
		headers = append(headers, fmt.Sprintf("%dK sigs", f*2048/1024))
	}
	tab := textplot.NewTable(headers...)
	for pi, p := range ps {
		row := []string{p.Name}
		best := 0.0
		var covs []float64
		for i := range fig10Frames {
			c := res[pi*len(fig10Frames)+i].Cov.CoveragePct()
			covs = append(covs, c)
			if c > best {
				best = c
			}
		}
		for _, c := range covs {
			if best > 0.005 {
				row = append(row, textplot.Pct(c/best))
			} else {
				row = append(row, "-")
			}
		}
		tab.AddRow(row...)
		o.progress("fig10 %s done (best %.1f%%)", p.Name, best*100)
	}
	rep := &Report{
		ID:    "fig10",
		Title: "Coverage vs off-chip sequence storage size (normalized to the largest configuration)",
	}
	rep.AddSection("% of potential predictions", tab)
	rep.Notes = append(rep.Notes,
		"paper shape: several benchmarks need the full storage; coverage rises with capacity",
		"storage capacities scaled to the synthetic footprints (paper: 2M-32M signatures)")
	return rep, nil
}
