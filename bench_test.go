// Package repro's root benchmarks: the hot-path and whole-run entries
// that `make bench` snapshots into BENCH_core.json and `make bench-check`
// gates (BENCH_RE in the Makefile names them), and TestZeroAllocPins,
// which holds the steady-state ones to 0 allocs/op and their B/op pins.
// Per-experiment and per-layer timings live in the repository benchmark
// under bench/.
//
// Run them:
//
//	go test -run '^$' -bench . -benchmem
package repro

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/exp"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// ---- Core hot-path benchmarks ----
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
// steady state: a 4-program consolidation stream routed by sim.Run to
// per-context cache shards with partitioned LT-cords state. Each batch is
// handed to the shards as maximal same-context runs, so the steady state
// stays zero-alloc.
func BenchmarkCoverageSharded(b *testing.B) {
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
		sim.Config{Contexts: 4})
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
// growth, not on zero. Each exp.Run is a job of its own to the trace
// memo, as a daemon's one-experiment jobs are, so with no cache attached
// every experiment generates its traces again: the loop also prices the
// cross-job trace reuse a memory-only daemon gives up.
func BenchmarkExpAll(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sched := runner.New(0)
		o := exp.Options{Scale: workload.Small, Benchmarks: []string{"swim", "mcf", "gzip"}, Runner: sched}
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

// TestZeroAllocPins holds the five steady-state benchmarks to the
// zero-alloc pipeline invariant (DESIGN.md §7) on any machine: each runs
// through testing.Benchmark and must report 0 allocs/op, with B/op at
// most its pinned residual — the LT-cords predictor's lazily populated
// sequence store, amortized over b.N (8, 10 and 11 B/op for Coverage,
// CoverageSharded and TimingModel) — plus 2 bytes for the jitter of that
// amortization with the iteration count. The predictor-free TraceGen and
// TraceReplay allocate nothing at all. A run slowed by a busy machine
// divides the same population bytes by a smaller b.N, so, as
// `make bench-check` does, B/op is the best of up to three runs; every
// run must report 0 allocs/op.
func TestZeroAllocPins(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark runs are not short")
	}
	for _, pin := range []struct {
		name     string
		bench    func(*testing.B)
		maxBytes int64
	}{
		{"BenchmarkCoverage", BenchmarkCoverage, 10},
		{"BenchmarkCoverageSharded", BenchmarkCoverageSharded, 12},
		{"BenchmarkTimingModel", BenchmarkTimingModel, 13},
		{"BenchmarkTraceGen", BenchmarkTraceGen, 0},
		{"BenchmarkTraceReplay", BenchmarkTraceReplay, 0},
	} {
		bop := int64(-1)
		for try := 0; try < 3 && (bop < 0 || bop > pin.maxBytes); try++ {
			r := testing.Benchmark(pin.bench)
			if r.N == 0 {
				t.Fatalf("%s failed", pin.name)
			}
			if got := r.AllocsPerOp(); got != 0 {
				t.Errorf("%s: %d allocs/op, want 0", pin.name, got)
			}
			t.Logf("%s: %s %s", pin.name, r, r.MemString())
			if got := r.AllocedBytesPerOp(); bop < 0 || got < bop {
				bop = got
			}
		}
		if bop > pin.maxBytes {
			t.Errorf("%s: %d B/op in the best of three runs, want at most %d", pin.name, bop, pin.maxBytes)
		}
	}
}
