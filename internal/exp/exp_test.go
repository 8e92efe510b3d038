package exp

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workload"
)

// quick runs an experiment on a tiny benchmark subset at Small scale.
func quick(t *testing.T, id string, benches ...string) *Report {
	t.Helper()
	rep, err := Run(id, Options{Scale: workload.Small, Benchmarks: benches})
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if rep.ID != id {
		t.Errorf("report id = %q want %q", rep.ID, id)
	}
	var sb strings.Builder
	rep.Render(&sb)
	if !strings.Contains(sb.String(), id) {
		t.Errorf("%s: render missing id", id)
	}
	t.Logf("%s:\n%s", id, sb.String())
	return rep
}

func TestIDsComplete(t *testing.T) {
	want := []string{"ablations", "consol", "convergence", "fig10", "fig11", "fig12", "fig2", "fig4",
		"fig6left", "fig6right", "fig7", "fig8", "fig9", "power", "table2", "table3"}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("ids = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("id %d = %q want %q", i, got[i], want[i])
		}
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("nope", Options{}); err == nil {
		t.Error("unknown id must error")
	}
}

func TestUnknownBenchmark(t *testing.T) {
	if _, err := Run("fig8", Options{Benchmarks: []string{"nonesuch"}}); err == nil {
		t.Error("unknown benchmark must error")
	}
}

func TestFig2Quick(t *testing.T) {
	rep := quick(t, "fig2", "swim", "gzip")
	if len(rep.Sections) < 2 {
		t.Error("fig2 should have CDF and per-benchmark sections")
	}
}

func TestFig4Quick(t *testing.T) {
	rep := quick(t, "fig4", "swim", "mcf")
	if rep.Table().Rows() != len(fig4Sizes) {
		t.Errorf("fig4 rows = %d", rep.Table().Rows())
	}
	// Coverage normalized to unlimited must be higher at the largest size
	// than the smallest for these footprint-heavy benchmarks.
	first := rep.Table().Cell(0, 1)
	last := rep.Table().Cell(rep.Table().Rows()-1, 1)
	if first == last && first == "100.0%" {
		t.Logf("warning: no size sensitivity visible (%s vs %s)", first, last)
	}
}

func TestFig6Quick(t *testing.T) {
	repL := quick(t, "fig6left", "swim", "gzip")
	if repL.Table().Rows() != 2 {
		t.Error("fig6left rows")
	}
	repR := quick(t, "fig6right", "gzip", "ammp")
	_ = repR
}

func TestFig7Quick(t *testing.T) {
	rep := quick(t, "fig7", "swim", "mcf")
	// Last row is the average.
	if got := rep.Table().Cell(rep.Table().Rows()-1, 0); got != "average" {
		t.Errorf("last row = %q", got)
	}
}

func TestFig8Quick(t *testing.T) {
	rep := quick(t, "fig8", "swim", "em3d")
	if rep.Table().Rows() != 2 {
		t.Error("fig8 rows")
	}
}

func TestFig9Quick(t *testing.T) {
	rep := quick(t, "fig9", "swim")
	if rep.Table().Rows() != len(fig9Sizes) {
		t.Error("fig9 rows")
	}
}

func TestFig10Quick(t *testing.T) {
	rep := quick(t, "fig10", "swim")
	if rep.Table().Rows() != 1 {
		t.Error("fig10 rows")
	}
}

func TestFig11Quick(t *testing.T) {
	// fig11 uses its own pair list; just exercise it at Small scale.
	rep, err := Run("fig11", Options{Scale: workload.Small})
	if err != nil {
		t.Fatal(err)
	}
	// 5 subjects, each standalone + partners (3+3+3+3+2=14) = 19 rows.
	if rep.Table().Rows() != 19 {
		t.Errorf("fig11 rows = %d want 19", rep.Table().Rows())
	}
}

func TestConsolQuick(t *testing.T) {
	// consol uses its own mix list; exercise it at Small scale.
	rep, err := Run("consol", Options{Scale: workload.Small})
	if err != nil {
		t.Fatal(err)
	}
	// One row per program per mix plus a merged row per mix:
	// (2+1) + (4+1) + (8+1) = 17.
	if rep.Table().Rows() != 17 {
		t.Errorf("consol rows = %d want 17", rep.Table().Rows())
	}
}

func TestFig12Quick(t *testing.T) {
	rep := quick(t, "fig12", "swim", "mcf")
	if rep.Table().Rows() != 2 {
		t.Error("fig12 rows")
	}
}

func TestTable2Quick(t *testing.T) {
	rep := quick(t, "table2", "swim", "crafty")
	if rep.Table().Rows() != 2 {
		t.Error("table2 rows")
	}
}

func TestTable3Quick(t *testing.T) {
	rep := quick(t, "table3", "em3d", "gzip")
	// 2 benchmarks + 4 mean rows.
	if rep.Table().Rows() != 6 {
		t.Errorf("table3 rows = %d", rep.Table().Rows())
	}
}

func TestPowerQuick(t *testing.T) {
	rep := quick(t, "power")
	if rep.Table().Rows() < 8 {
		t.Error("power rows")
	}
}

func TestAblationsQuick(t *testing.T) {
	rep, err := Run("ablations", Options{Scale: workload.Small, Benchmarks: []string{"swim"}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Table().Rows() != len(ablations()) {
		t.Errorf("ablation rows = %d", rep.Table().Rows())
	}
}

func TestConvergenceQuick(t *testing.T) {
	rep := quick(t, "convergence", "swim")
	if rep.Table().Rows() != 1 {
		t.Error("convergence rows")
	}
	// Later deciles must not be "-" for a miss-heavy benchmark.
	if rep.Table().Cell(0, 10) == "-" {
		t.Error("last decile empty")
	}
}

// TestConvergenceMatchesFig8 pins that convergence measures the same
// coverage as fig8: its deciles split one LT-cords coverage run, so on
// em3d (a benchmark whose predictor sees early evictions) the decile sums
// of Opportunity and Correct equal fig8's LT-cords cell.
func TestConvergenceMatchesFig8(t *testing.T) {
	p, _ := workload.ByName("em3d")
	s := runner.New(0)
	o := Options{Scale: workload.Small, traces: leaseTraces(s, nil)}
	defer o.traces.release()
	dec, err := runner.All(context.Background(), s, []runner.Task[sim.Coverage]{o.decileCell(p, core.DefaultParams())})
	if err != nil {
		t.Fatal(err)
	}
	fig8, err := runner.All(context.Background(), s, []runner.Task[ltCov]{o.ltCoverageCell(p, core.DefaultParams(), sim.Config{})})
	if err != nil {
		t.Fatal(err)
	}
	var sum sim.CtxCoverage
	for d := 0; d < 10; d++ {
		sum.Opportunity += dec[0].Ctx(d).Opportunity
		sum.Correct += dec[0].Ctx(d).Correct
	}
	want := fig8[0].Cov
	if sum.Opportunity != want.Opportunity || sum.Correct != want.Correct {
		t.Fatalf("convergence deciles sum to %d opportunity, %d correct; fig8 LT-cords has %d, %d",
			sum.Opportunity, sum.Correct, want.Opportunity, want.Correct)
	}
	if want.Early == 0 {
		t.Fatal("em3d no longer sees early evictions; pick a benchmark that does")
	}
}
