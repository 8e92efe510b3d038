package exp

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dbcp"
	"repro/internal/ghb"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// TestPaperShapes asserts the qualitative results DESIGN.md §6 commits to,
// at Small scale. These are the automated regression net for "did the
// reproduction break": each clause corresponds to a headline claim of the
// paper.
func TestPaperShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("shape verification is not short")
	}
	o := Options{Scale: workload.Small}

	cov := func(name string, pf sim.Prefetcher, withL2 bool) sim.Coverage {
		t.Helper()
		p, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("no preset %s", name)
		}
		c, err := sim.RunCoverage(p.Source(o.Scale, o.seed()), pf, sim.Config{WithL2: withL2})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	l1 := sim.PaperL1D()

	t.Run("LTCordsMatchesOracleOnCorrelated", func(t *testing.T) {
		// Figure 8: LT-cords with ~200KB on chip tracks unlimited DBCP.
		for _, b := range []string{"swim", "art", "em3d"} {
			lt := cov(b, core.MustNew(l1, core.DefaultParams()), false)
			orc := cov(b, dbcp.MustNew(l1, dbcp.UnlimitedParams()), false)
			t.Logf("%s: LT %.2f vs oracle %.2f", b, lt.CoveragePct(), orc.CoveragePct())
			if lt.CoveragePct() < orc.CoveragePct()-0.25 {
				t.Errorf("%s: LT-cords %.2f far below oracle %.2f", b, lt.CoveragePct(), orc.CoveragePct())
			}
		}
	})

	t.Run("HashedWorkloadsUncoverable", func(t *testing.T) {
		// Figure 6/8: gzip-class benchmarks have nothing to correlate.
		for _, b := range []string{"gzip", "twolf"} {
			lt := cov(b, core.MustNew(l1, core.DefaultParams()), false)
			if lt.CoveragePct() > 0.2 {
				t.Errorf("%s: implausible coverage %.2f on a hashed workload", b, lt.CoveragePct())
			}
			if lt.EarlyPct() > 0.1 {
				t.Errorf("%s: hashed workload early rate %.2f", b, lt.EarlyPct())
			}
		}
	})

	t.Run("AddressVsDeltaCorrelation", func(t *testing.T) {
		// Section 1: delta correlation fails on irregular layouts; address
		// correlation does not. And vice versa on no-reuse streams.
		ltChase := cov("em3d", core.MustNew(l1, core.DefaultParams()), false)
		ghbChase := cov("em3d", ghb.MustNew(l1, ghb.DefaultParams()), true)
		t.Logf("em3d: LT L1-coverage %.2f, GHB L2-coverage %.2f", ltChase.CoveragePct(), ghbChase.L2CoveragePct())
		if ltChase.CoveragePct() < 0.35 {
			t.Errorf("LT-cords must cover the irregular chase, got %.2f", ltChase.CoveragePct())
		}
		if ghbChase.L2CoveragePct() > 0.25 {
			t.Errorf("GHB must fail on the irregular chase, got %.2f", ghbChase.L2CoveragePct())
		}
		ltGap := cov("gap", core.MustNew(l1, core.DefaultParams()), true)
		ghbGap := cov("gap", ghb.MustNew(l1, ghb.DefaultParams()), true)
		t.Logf("gap: LT L2-coverage %.2f, GHB L2-coverage %.2f", ltGap.L2CoveragePct(), ghbGap.L2CoveragePct())
		if ghbGap.L2CoveragePct() < ltGap.L2CoveragePct() {
			t.Error("delta correlation must win on the no-reuse stream")
		}
	})

	t.Run("SpeedupOrderingOnMcf", func(t *testing.T) {
		// Table 3's marquee row: mcf. Perfect L1 >> LT-cords >> GHB ~ 0.
		p, _ := workload.ByName("mcf")
		o := o
		o.traces = leaseTraces(nil, nil)
		defer o.traces.release()
		run := func(pf sim.Prefetcher, perfect bool) cpu.Result {
			params := timingParams(p)
			params.PerfectL1 = perfect
			total, err := o.instrs(p)
			if err != nil {
				t.Fatal(err)
			}
			params.WarmupInstrs = total * 30 / 100
			e, err := cpu.NewEngine(params, cache.Config{}, cache.Config{})
			if err != nil {
				t.Fatal(err)
			}
			return e.Run(p.Source(o.Scale, o.seed()), pf)
		}
		base := run(sim.Null{}, false)
		perfect := run(sim.Null{}, true)
		lt := run(core.MustNew(l1, core.DefaultParams()), false)
		gh := run(ghb.MustNew(l1, ghb.DefaultParams()), false)
		spd := func(r cpu.Result) float64 {
			return stats.PercentChange(float64(base.MeasuredCycles()), float64(r.MeasuredCycles()))
		}
		t.Logf("mcf speedups: perfect %+.0f%%, LT %+.0f%%, GHB %+.0f%%", spd(perfect), spd(lt), spd(gh))
		if spd(lt) < 50 {
			t.Errorf("LT-cords mcf speedup %.0f%% too low (paper: +385%%)", spd(lt))
		}
		if spd(perfect) < spd(lt) {
			t.Error("perfect L1 must bound LT-cords")
		}
		if spd(gh) > spd(lt)/2 {
			t.Errorf("GHB (%.0f%%) must trail LT-cords (%.0f%%) on mcf", spd(gh), spd(lt))
		}
	})

	t.Run("DeadTimesExceedMemoryLatency", func(t *testing.T) {
		// Figure 2: most dead times are longer than the memory latency.
		p, _ := workload.ByName("swim")
		params := timingParams(p)
		params.DeadTimes = stats.NewLog2Histogram(36)
		e, err := cpu.NewEngine(params, cache.Config{}, cache.Config{})
		if err != nil {
			t.Fatal(err)
		}
		e.Run(p.Source(o.Scale, o.seed()), sim.Null{})
		frac := params.DeadTimes.FractionAbove(200)
		t.Logf("swim dead times > 200 cycles: %.2f", frac)
		if frac < 0.7 {
			t.Errorf("dead-time fraction above memory latency %.2f; paper reports >0.85", frac)
		}
	})

	t.Run("OnChipBudgetIsPractical", func(t *testing.T) {
		// The whole point: coverage with practical on-chip storage.
		budget := core.DefaultParams().OnChipBytes()
		if budget > 256*1024 {
			t.Errorf("on-chip budget %dKB exceeds the paper's ~214KB class", budget/1024)
		}
	})
}
