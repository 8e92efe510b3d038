package exp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/textplot"
	"repro/internal/workload"
)

func init() { register("fig11", runFig11) }

// fig11Pairs mirrors the paper's Figure 11 pairings: a representative
// subset of integer and floating point applications with comparatively
// high and low LT-cords coverage.
var fig11Pairs = map[string][]string{
	"gcc":   {"mcf", "gzip", "swim"},
	"mcf":   {"gcc", "vortex", "fma3d"},
	"swim":  {"fma3d", "mesa", "gcc"},
	"fma3d": {"swim", "facerec", "mcf"},
	"lucas": {"applu", "mgrid"},
}

var fig11Order = []string{"gcc", "mcf", "swim", "fma3d", "lucas"}

// fig11Quanta returns the per-program context-switch quanta in committed
// instructions. The paper uses 60M/120M-instruction quanta (IPC-scaled);
// our workloads are smaller, so quanta scale with the workload.
func fig11Quanta(s workload.Scale) (uint64, uint64) {
	switch s {
	case workload.Medium:
		return 600_000, 1_200_000
	case workload.Large:
		return 2_000_000, 4_000_000
	}
	return 120_000, 240_000
}

// suiteQuantum returns the per-program quantum chooser the multi-programmed
// experiments (fig11, consol) share: integer programs get the shorter
// quantum, floating point (and Olden) the longer.
func suiteQuantum(s workload.Scale) func(workload.Preset) uint64 {
	intQ, fpQ := fig11Quanta(s)
	return func(p workload.Preset) uint64 {
		if p.Suite == "SPECint" {
			return intQ
		}
		return fpQ
	}
}

// runFig11 reproduces Figure 11: LT-cords coverage when two programs
// alternate execution on shared predictor state (both the on-chip
// structures and the off-chip sequence storage), with non-overlapping
// physical address ranges. Paper headline: with state preserved across
// context switches, coverage is nearly unaffected — except when the
// combined sequences exceed the off-chip storage (lucas with applu/mgrid).
// The standalone cells are shared with fig8.
func runFig11(o Options) (*Report, error) {
	quantum := suiteQuantum(o.Scale)
	type pairing struct {
		subject, partner workload.Preset
	}
	s := o.sched()
	var soloTasks []runner.Task[ltCov]
	var mixTasks []runner.Task[sim.Coverage]
	var pairs []pairing
	for _, name := range fig11Order {
		subject, ok := workload.ByName(name)
		if !ok {
			return nil, fmt.Errorf("fig11: missing preset %s", name)
		}
		soloTasks = append(soloTasks, o.ltCoverageCell(subject, core.DefaultParams(), sim.Config{}))
		for _, partnerName := range fig11Pairs[name] {
			partner, ok := workload.ByName(partnerName)
			if !ok {
				return nil, fmt.Errorf("fig11: missing preset %s", partnerName)
			}
			pairs = append(pairs, pairing{subject, partner})
			mixTasks = append(mixTasks,
				o.mixedCoverageCell(subject, partner, quantum(subject), quantum(partner), core.DefaultParams()))
		}
	}
	soloRes, mixRes, err := runner.All2(o.ctx(), s, soloTasks, mixTasks)
	if err != nil {
		return nil, err
	}

	tab := textplot.NewTable("subject", "partner", "correct", "incorrect", "train", "early")
	mi := 0
	for si, name := range fig11Order {
		cov := soloRes[si].Cov
		tab.AddRow(name, "(standalone)",
			textplot.Pct(cov.CoveragePct()), textplot.Pct(cov.IncorrectPct()),
			textplot.Pct(cov.TrainPct()), textplot.Pct(cov.EarlyPct()))
		for ; mi < len(pairs) && pairs[mi].subject.Name == name; mi++ {
			c := mixRes[mi].Ctx(0) // the subject's context
			tab.AddRow(name, "w/ "+pairs[mi].partner.Name,
				textplot.Pct(c.CoveragePct()), textplot.Pct(c.IncorrectPct()),
				textplot.Pct(c.TrainPct()), textplot.Pct(c.EarlyPct()))
			o.progress("fig11 %s w/ %s done", name, pairs[mi].partner.Name)
		}
	}
	rep := &Report{
		ID:    "fig11",
		Title: "LT-cords coverage in a multi-programmed environment (subject's coverage standalone and with a partner)",
	}
	rep.AddSection("", tab)
	rep.Notes = append(rep.Notes,
		"paper shape: preserved predictor state keeps coverage near standalone;",
		"storage-hungry pairings (lucas w/ applu or mgrid) lose coverage to insufficient combined sequence storage")
	return rep, nil
}
