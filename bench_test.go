// Package repro's benchmark harness: one testing.B benchmark per paper
// table and figure (see DESIGN.md §3 for the experiment index). Each bench
// regenerates its artifact at Small scale and reports domain-specific
// metrics (simulated references/sec, coverage, speedup) alongside ns/op.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// The same experiments run standalone via cmd/ltexp (any scale).
package repro

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dbcp"
	"repro/internal/exp"
	"repro/internal/ghb"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// benchExp runs one registered experiment per iteration.
func benchExp(b *testing.B, id string, benches ...string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rep, err := exp.Run(id, exp.Options{Scale: workload.Small, Benchmarks: benches})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Table() == nil || rep.Table().Rows() == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

// Figure 2: dead-time CDF (three representative benchmarks to bound time).
func BenchmarkFig2DeadTimes(b *testing.B) {
	benchExp(b, "fig2", "swim", "mcf", "gzip")
}

// Figure 4: DBCP coverage vs correlation table size.
func BenchmarkFig4DBCPStorage(b *testing.B) {
	benchExp(b, "fig4", "swim", "mcf")
}

// Figure 6 (left): temporal correlation distance CDF.
func BenchmarkFig6TemporalCorrelation(b *testing.B) {
	benchExp(b, "fig6left", "swim", "mcf", "gzip")
}

// Figure 6 (right): correlated sequence lengths.
func BenchmarkFig6SequenceLengths(b *testing.B) {
	benchExp(b, "fig6right", "ammp", "gzip")
}

// Figure 7: last-touch vs miss order disparity.
func BenchmarkFig7OrderDisparity(b *testing.B) {
	benchExp(b, "fig7", "swim", "mcf")
}

// Figure 8: LT-cords vs unlimited DBCP coverage/accuracy.
func BenchmarkFig8Coverage(b *testing.B) {
	benchExp(b, "fig8", "swim", "em3d")
}

// Figure 9: signature cache size sweep.
func BenchmarkFig9SigCacheSweep(b *testing.B) {
	benchExp(b, "fig9", "swim")
}

// Figure 10: off-chip sequence storage sweep.
func BenchmarkFig10StorageSweep(b *testing.B) {
	benchExp(b, "fig10", "swim")
}

// Figure 11: multi-programmed coverage (full pair list).
func BenchmarkFig11MultiProgrammed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Run("fig11", exp.Options{Scale: workload.Small}); err != nil {
			b.Fatal(err)
		}
	}
}

// Figure 12: memory bus utilization decomposition.
func BenchmarkFig12Bandwidth(b *testing.B) {
	benchExp(b, "fig12", "swim", "mcf")
}

// Table 2: baseline miss rates and IPC.
func BenchmarkTable2Baseline(b *testing.B) {
	benchExp(b, "table2", "swim", "mcf", "gzip")
}

// Table 3: speedup comparison across the five machine configurations.
func BenchmarkTable3Speedup(b *testing.B) {
	benchExp(b, "table3", "mcf", "swim")
}

// Section 5.9: power model comparison.
func BenchmarkPowerModel(b *testing.B) {
	benchExp(b, "power")
}

// Ablations: LT-cords design-choice sweep on one benchmark.
func BenchmarkAblations(b *testing.B) {
	benchExp(b, "ablations", "swim")
}

// BenchmarkExpAllCells runs every experiment on a two-benchmark subset
// through one shared cell scheduler — once serial and once at GOMAXPROCS —
// so both the worker-pool speedup and the cross-figure cache hit rate are
// visible in the bench trajectory.
func BenchmarkExpAllCells(b *testing.B) {
	for _, par := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("parallel-%d", par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sched := runner.New(par)
				o := exp.Options{Scale: workload.Small, Benchmarks: []string{"swim", "mcf"}, Runner: sched}
				for _, id := range exp.IDs() {
					if _, err := exp.Run(id, o); err != nil {
						b.Fatalf("%s: %v", id, err)
					}
				}
				st := sched.Stats()
				b.ReportMetric(st.HitRate()*100, "cache-hit%")
				b.ReportMetric(float64(st.Executed), "cells-simulated")
			}
		})
	}
}

// ---- Core hot-path benchmarks (perf trajectory; `make bench` snapshots
// these three into BENCH_core.json) ----
//
// Each drives exactly b.N references through one long-lived simulation, so
// ns/op is the per-reference cost and allocs/op measures the steady-state
// loop: the zero-alloc pipeline invariant (DESIGN.md §"Reference pipeline")
// holds when allocs/op reports 0.

// cyclic regenerates mk() whenever the stream runs dry, yielding an
// unbounded source; callers bound it with trace.Limit.
func cyclic(mk func() trace.Source) trace.Source {
	cur := mk()
	return trace.FillFunc(func(buf []trace.Ref) int {
		for {
			if n := cur.ReadRefs(buf); n > 0 {
				return n
			}
			cur = mk()
		}
	})
}

// BenchmarkCoverage is the headline steady-state benchmark: the coverage
// driver with the full LT-cords predictor, per-reference cost and allocs.
func BenchmarkCoverage(b *testing.B) {
	p, _ := workload.ByName("swim")
	src := trace.Limit(cyclic(func() trace.Source { return p.Source(workload.Small, 1) }), uint64(b.N))
	lt := core.MustNew(sim.PaperL1D(), core.DefaultParams())
	b.ReportAllocs()
	b.ResetTimer()
	cov, err := sim.RunCoverage(src, lt, sim.Config{})
	if err != nil {
		b.Fatal(err)
	}
	if cov.Refs != uint64(b.N) {
		b.Fatalf("simulated %d refs, want %d", cov.Refs, b.N)
	}
}

// BenchmarkCoverageSharded measures the sharded multi-context driver in
// steady state: a 4-program consolidation stream routed to per-context
// cache shards with partitioned LT-cords state. The sharded hot path keeps
// the zero-alloc batch contract, so allocs/op must report 0 just like the
// monolithic driver.
func BenchmarkCoverageSharded(b *testing.B) {
	benchSharded(b, 1)
}

// BenchmarkCoverageShardedParallel is the same run at Workers 4: the
// stream demultiplexes into per-context segments consumed by shard-owning
// worker goroutines, with segment buffers recycled through a free list,
// so the steady state stays zero-alloc and results byte-identical.
func BenchmarkCoverageShardedParallel(b *testing.B) {
	benchSharded(b, 4)
}

func benchSharded(b *testing.B, workers int) {
	b.Helper()
	mk := func() trace.Source {
		var progs []workload.ConsolProgram
		for _, name := range []string{"gcc", "gzip", "swim", "mcf"} {
			p, _ := workload.ByName(name)
			progs = append(progs, workload.ConsolProgram{Preset: p, Quantum: 20_000})
		}
		src, err := workload.Consolidate(progs, workload.Small, 1, 0)
		if err != nil {
			b.Fatal(err)
		}
		return src
	}
	src := trace.Limit(cyclic(mk), uint64(b.N))
	b.ReportAllocs()
	b.ResetTimer()
	sc, err := sim.Run(src,
		func(int) sim.Prefetcher { return core.MustNew(sim.PaperL1D(), core.DefaultParams()) },
		sim.Config{Contexts: 4, Workers: workers})
	if err != nil {
		b.Fatal(err)
	}
	if sc.Refs != uint64(b.N) {
		b.Fatalf("simulated %d refs, want %d", sc.Refs, b.N)
	}
}

// BenchmarkTimingModel measures the cycle-level engine's per-reference cost
// on the dependence-heavy mcf preset with LT-cords attached.
func BenchmarkTimingModel(b *testing.B) {
	p, _ := workload.ByName("mcf")
	params := cpu.DefaultParams()
	params.BranchMPKI = p.BranchMPKI
	e, err := cpu.NewEngine(params, cache.Config{}, cache.Config{})
	if err != nil {
		b.Fatal(err)
	}
	src := trace.Limit(cyclic(func() trace.Source { return p.Source(workload.Small, 1) }), uint64(b.N))
	lt := core.MustNew(sim.PaperL1D(), core.DefaultParams())
	b.ReportAllocs()
	b.ResetTimer()
	res := e.Run(src, lt)
	if res.Refs != uint64(b.N) {
		b.Fatalf("simulated %d refs, want %d", res.Refs, b.N)
	}
}

// BenchmarkTraceReplay measures materialized-trace replay: ns per
// reference decoded through a store cursor (the cost every experiment
// cell pays instead of regeneration). The replay loop is part of the §7
// zero-alloc pipeline, so allocs/op must report 0.
func BenchmarkTraceReplay(b *testing.B) {
	p, _ := workload.ByName("swim")
	m := trace.Materialize(p.Source(workload.Small, 1))
	cur := m.Cursor()
	buf := make([]trace.Ref, trace.DefaultBatch)
	b.ReportAllocs()
	b.ResetTimer()
	for remaining := b.N; remaining > 0; {
		want := len(buf)
		if remaining < want {
			want = remaining
		}
		n := cur.ReadRefs(buf[:want])
		if n == 0 {
			cur.Reset()
			continue
		}
		remaining -= n
	}
}

// BenchmarkExpAll is the wall-time entry for an `ltexp -exp all`-shaped
// invocation: every registered experiment through one shared scheduler at
// Small scale on a three-benchmark subset (fig11 and consol always run
// their own preset pools, so the multi-program materialization fan-out
// dominates exactly as in the full run). ns/op is the whole run's wall
// time; allocs track the scheduler + cell machinery and are gated on
// growth, not on zero.
func BenchmarkExpAll(b *testing.B) {
	benchExpAll(b, 0)
}

// BenchmarkExpAllParallel is BenchmarkExpAll with intra-run workers enabled:
// consolidation cells decompose into per-context shard cells co-scheduled on
// the same CPU budget as cell-level parallelism (weighted admission), so the
// report bytes stay identical while the wall time tracks the shard fan-out.
func BenchmarkExpAllParallel(b *testing.B) {
	benchExpAll(b, 8)
}

func benchExpAll(b *testing.B, workers int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		sched := runner.New(0)
		o := exp.Options{Scale: workload.Small, Benchmarks: []string{"swim", "mcf", "gzip"}, Runner: sched, Workers: workers}
		for _, id := range exp.IDs() {
			if _, err := exp.Run(id, o); err != nil {
				b.Fatalf("%s: %v", id, err)
			}
		}
	}
}

// BenchmarkTraceGen measures raw batch reference generation throughput.
func BenchmarkTraceGen(b *testing.B) {
	p, _ := workload.ByName("swim")
	src := cyclic(func() trace.Source { return p.Source(workload.Large, 1) })
	buf := make([]trace.Ref, trace.DefaultBatch)
	b.ReportAllocs()
	b.ResetTimer()
	for remaining := b.N; remaining > 0; {
		want := len(buf)
		if remaining < want {
			want = remaining
		}
		remaining -= src.ReadRefs(buf[:want])
	}
}

// ---- Microbenchmarks of the simulation substrate itself ----

// BenchmarkCoverageDBCPUnlimited measures the oracle-DBCP simulation rate.
func BenchmarkCoverageDBCPUnlimited(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p, _ := workload.ByName("swim")
		pr := dbcp.MustNew(sim.PaperL1D(), dbcp.UnlimitedParams())
		cov, err := sim.RunCoverage(p.Source(workload.Small, 1), pr, sim.Config{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(cov.Refs), "refs/op")
	}
}

// BenchmarkCoverageGHB measures the GHB simulation rate.
func BenchmarkCoverageGHB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p, _ := workload.ByName("swim")
		pr := ghb.MustNew(sim.PaperL1D(), ghb.DefaultParams())
		cov, err := sim.RunCoverage(p.Source(workload.Small, 1), pr, sim.Config{WithL2: true})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(cov.Refs), "refs/op")
	}
}

// BenchmarkTimingEngine measures the cycle-timing simulation rate and
// reports the headline mcf speedup (LT-cords vs baseline).
func BenchmarkTimingEngine(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p, _ := workload.ByName("mcf")
		params := cpu.DefaultParams()
		params.BranchMPKI = p.BranchMPKI
		eBase, err := cpu.NewEngine(params, cache.Config{}, cache.Config{})
		if err != nil {
			b.Fatal(err)
		}
		base := eBase.Run(p.Source(workload.Small, 1), sim.Null{})
		eLT, err := cpu.NewEngine(params, cache.Config{}, cache.Config{})
		if err != nil {
			b.Fatal(err)
		}
		lt := eLT.Run(p.Source(workload.Small, 1), core.MustNew(sim.PaperL1D(), core.DefaultParams()))
		b.ReportMetric(stats.PercentChange(float64(base.Cycles), float64(lt.Cycles)), "mcf-speedup%")
	}
}
