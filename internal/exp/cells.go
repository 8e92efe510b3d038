package exp

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/corr"
	"repro/internal/cpu"
	"repro/internal/dbcp"
	"repro/internal/ghb"
	"repro/internal/mem"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// This file decomposes the experiments into simulation cells: independent
// units of work (preset × scale × seed × cache config × prefetcher)
// submitted through the runner scheduler. Cell keys fingerprint every
// input that affects the result, so cells shared between figures — the
// baseline timing runs (fig2/table2/table3), the correlation analyses
// (fig6/fig7), the oracle-DBCP coverage runs (fig4/fig8), the default
// LT-cords coverage runs (fig8/fig11/ablations) — are simulated once per
// scheduler and served from the cache afterwards.
//
// Workload generation is deduped one level below the cells: every cell
// pulls its reference stream from its job's trace memo (the nested "mat"
// cells, see Options.materialized), so each (preset, scale, seed) stream
// is generated once per job and every analysis replays it through an
// independent trace.Materialized cursor at decode bandwidth (DESIGN.md
// §10).

// fp renders a parameter struct into a canonical fingerprint. Parameter
// structs must contain only scalar fields (no pointers, maps or slices).
// Renderings are memoized by value: the experiments draw on a fixed set
// of parameter structs and every job rebuilds its cell keys from them,
// so %+v would otherwise dominate a warm job's key building.
func fp(v any) string {
	if s, ok := fps.Load(v); ok {
		return s.(string)
	}
	s := fmt.Sprintf("%+v", v)
	fps.Store(v, s)
	return s
}

// fps is fp's memo: parameter struct → rendering.
var fps sync.Map

// cellKey fingerprints the workload inputs common to every cell.
func (o Options) cellKey(p workload.Preset) string {
	return fmt.Sprintf("%s|scale%d|seed%d", p.Name, o.Scale, o.seed())
}

// materialized resolves the preset's materialized trace through the
// job's trace memo: per job, each (preset, scale, seed) stream is
// generated and encoded at most once — the "mat" cell — and every
// consumer replays it through its own cursor. Consolidation components
// pass their effective seed (seed+7i), so a partner program shared by
// several mixes is also generated once. A result cell that job A runs
// and job B awaits holds its trace under A's lease, captured with A's
// Options.
func (o Options) materialized(p workload.Preset, seed uint64) (*trace.Materialized, error) {
	// With a persistent cache attached, the trace persists out of band
	// through traceCodec: the cell's stored payload is the content digest
	// of the LTCX file in the cache's traces tier, and revival mmaps the
	// file back — each (preset, scale, seed) stream is generated once per
	// machine, and that tier is how a trace reaches a job that starts after
	// its last holder ended (traceMemo).
	var codec runner.Codec
	if o.Cache != nil {
		codec = traceCodec{dir: o.Cache}
	}
	v, err := o.traces.do(o, runner.Cell{
		Key:   fmt.Sprintf("mat|%s|scale%d|seed%d", p.Name, o.Scale, seed),
		Codec: codec,
		Run: func() (any, error) {
			return trace.Materialize(p.Source(o.Scale, seed)), nil
		},
	})
	if err != nil {
		return nil, err
	}
	return v.(*trace.Materialized), nil
}

// source returns an independent zero-alloc replay cursor over the
// preset's materialized trace: the Source every simulation cell consumes
// instead of re-running the generators.
func (o Options) source(p workload.Preset) (trace.Source, error) {
	m, err := o.materialized(p, o.seed())
	if err != nil {
		return nil, err
	}
	return m.Cursor(), nil
}

// consolCursors materializes every component program of a consolidation
// mix (program i at seed+7i, as workload.Consolidate seeds them) and
// returns one fresh cursor per component, in mix order.
func (o Options) consolCursors(progs []workload.ConsolProgram) ([]trace.Source, []uint64, error) {
	srcs := make([]trace.Source, len(progs))
	quanta := make([]uint64, len(progs))
	for i, p := range progs {
		m, err := o.materialized(p.Preset, o.seed()+7*uint64(i))
		if err != nil {
			return nil, nil, err
		}
		srcs[i] = m.Cursor()
		quanta[i] = p.Quantum
	}
	return srcs, quanta, nil
}

// Coverage configurations are fingerprinted by sim.Config.Fingerprint:
// canonical (defaults resolved, so Config{} and an explicit PaperL1D()
// config share an entry) and stable across processes, as the persistent
// cache requires.

// pfSpec couples a prefetcher factory with the fingerprint of the
// parameters it was built from, keeping cell keys and the simulated
// configuration in sync by construction.
type pfSpec struct {
	fp string
	mk func() sim.Prefetcher
}

func nullPF() pfSpec {
	return pfSpec{fp: "none", mk: func() sim.Prefetcher { return sim.Null{} }}
}

func ltPF(params core.Params) pfSpec {
	return pfSpec{fp: "lt{" + fp(params) + "}",
		mk: func() sim.Prefetcher { return core.MustNew(sim.PaperL1D(), params) }}
}

func ghbPF(params ghb.Params) pfSpec {
	return pfSpec{fp: "ghb{" + fp(params) + "}",
		mk: func() sim.Prefetcher { return ghb.MustNew(sim.PaperL1D(), params) }}
}

func dbcpPF(params dbcp.Params) pfSpec {
	return pfSpec{fp: "dbcp{" + fp(params) + "}",
		mk: func() sim.Prefetcher { return dbcp.MustNew(sim.PaperL1D(), params) }}
}

// ltCov is the result of an LT-cords coverage cell: the coverage
// classification plus the predictor's own sequence-fetch traffic counter
// (the ablations report it).
type ltCov struct {
	Cov      sim.Coverage
	SeqFetch uint64
}

// ltCoverageCell runs LT-cords over one preset's trace.
func (o Options) ltCoverageCell(p workload.Preset, params core.Params, cfg sim.Config) runner.Task[ltCov] {
	key := "cov|" + o.cellKey(p) + "|pf=lt{" + fp(params) + "}|" + cfg.Fingerprint()
	return runner.Task[ltCov]{Key: key, Codec: resultCodec, Run: func() (ltCov, error) {
		src, err := o.source(p)
		if err != nil {
			return ltCov{}, err
		}
		lt := core.MustNew(sim.PaperL1D(), params)
		cov, err := sim.RunCoverage(src, lt, cfg)
		if err != nil {
			return ltCov{}, err
		}
		return ltCov{Cov: cov, SeqFetch: lt.Stats().SeqFetchBytes}, nil
	}}
}

// dbcpCoverageCell runs a DBCP configuration over one preset's trace.
func (o Options) dbcpCoverageCell(p workload.Preset, params dbcp.Params, cfg sim.Config) runner.Task[sim.Coverage] {
	key := "cov|" + o.cellKey(p) + "|pf=dbcp{" + fp(params) + "}|" + cfg.Fingerprint()
	return runner.Task[sim.Coverage]{Key: key, Codec: resultCodec, Run: func() (sim.Coverage, error) {
		src, err := o.source(p)
		if err != nil {
			return sim.Coverage{}, err
		}
		return sim.RunCoverage(src, dbcp.MustNew(sim.PaperL1D(), params), cfg)
	}}
}

// corrCell runs the temporal-correlation analysis over one preset's trace
// (shared by fig6left, fig6right and fig7). The Result's histograms are
// cached and shared: consumers must not mutate them.
func (o Options) corrCell(p workload.Preset, cfg corr.Config) runner.Task[corr.Result] {
	key := "corr|" + o.cellKey(p) + "|cfg{" + fp(cfg) + "}"
	return runner.Task[corr.Result]{Key: key, Codec: resultCodec, Run: func() (corr.Result, error) {
		src, err := o.source(p)
		if err != nil {
			return corr.Result{}, err
		}
		return corr.Analyze(src, cfg)
	}}
}

// timingRun is the result of a timing cell: the cycle-level result plus
// the L1D dead-time histogram collected along the way (fig2 consumes it;
// attaching it is free and keeps the baseline run shareable). The
// histogram is cached and shared: consumers must not mutate it.
type timingRun struct {
	Res       cpu.Result
	DeadTimes *stats.Log2Histogram
}

// instrs resolves a preset's committed instruction count (the timing
// cells size their SMARTS warm-up region with it). The materialized
// store accumulates stream statistics while encoding, so this costs a
// memo lookup — the seed-era dedicated counting pass per preset is gone.
func (o Options) instrs(p workload.Preset) (uint64, error) {
	m, err := o.materialized(p, o.seed())
	if err != nil {
		return 0, err
	}
	return m.Stats().Instrs, nil
}

// timingCell runs one cycle-level simulation with the prefetcher
// described by spec. The first 30% of instructions are detailed warm-up
// (predictor training), mirroring the paper's SMARTS
// warm-up-then-measure methodology; speedup comparisons use
// Result.MeasuredCycles. WarmupInstrs and DeadTimes are derived inside
// the cell, so they are excluded from the key.
func (o Options) timingCell(p workload.Preset, spec pfSpec, params cpu.Params, l1, l2 cache.Config) runner.Task[timingRun] {
	kp := params
	kp.WarmupInstrs = 0
	kp.DeadTimes = nil
	key := "timing|" + o.cellKey(p) + "|core{" + fp(kp) + "}|l1{" + l1.Fingerprint() + "}|l2{" + l2.Fingerprint() + "}|pf=" + spec.fp
	return runner.Task[timingRun]{Key: key, Codec: resultCodec, Run: func() (timingRun, error) {
		total, err := o.instrs(p)
		if err != nil {
			return timingRun{}, err
		}
		pr := params
		pr.WarmupInstrs = total * 30 / 100
		pr.DeadTimes = stats.NewLog2Histogram(36)
		e, err := cpu.NewEngine(pr, l1, l2)
		if err != nil {
			return timingRun{}, err
		}
		src, err := o.source(p)
		if err != nil {
			return timingRun{}, err
		}
		res := e.Run(src, spec.mk())
		return timingRun{Res: res, DeadTimes: pr.DeadTimes}, nil
	}}
}

// baselineTimingCell is the no-prefetch timing run shared by fig2, table2
// and table3.
func (o Options) baselineTimingCell(p workload.Preset) runner.Task[timingRun] {
	return o.timingCell(p, nullPF(), timingParams(p), cache.Config{}, cache.Config{})
}

// missRates is the result of a trace-driven miss-rate cell (table2).
type missRates struct {
	L1, L2 float64
}

// missRateCell drives one preset's trace through an L1/L2 pair and
// reports the miss rates.
func (o Options) missRateCell(p workload.Preset, l1cfg, l2cfg cache.Config) runner.Task[missRates] {
	key := "missrate|" + o.cellKey(p) + "|l1{" + l1cfg.Fingerprint() + "}|l2{" + l2cfg.Fingerprint() + "}"
	return runner.Task[missRates]{Key: key, Codec: resultCodec, Run: func() (missRates, error) {
		l1, err := cache.New(l1cfg)
		if err != nil {
			return missRates{}, err
		}
		l2, err := cache.New(l2cfg)
		if err != nil {
			return missRates{}, err
		}
		// Batch pump: the L1 filters whole reference batches, the L2 sees
		// the compacted L1-miss stream; only the aggregate Stats are
		// consumed, so the results-free batch path applies to both levels.
		src, err := o.source(p)
		if err != nil {
			return missRates{}, err
		}
		refBuf := make([]trace.Ref, trace.DefaultBatch)
		lanes := trace.NewBatchLanes(trace.DefaultBatch)
		hits := make([]bool, trace.DefaultBatch)
		l2Addrs := make([]mem.Addr, trace.DefaultBatch)
		l2Writes := make([]bool, trace.DefaultBatch) // L2 fills are reads
		l2Nows := make([]uint64, trace.DefaultBatch)
		l2Hits := make([]bool, trace.DefaultBatch)
		for {
			n := src.ReadRefs(refBuf)
			if n == 0 {
				break
			}
			lanes.Fill(refBuf[:n])
			l1.AccessBatchHits(lanes.Addrs[:n], lanes.Writes[:n], lanes.Nows[:n], hits[:n])
			m := 0
			for i := 0; i < n; i++ {
				if !hits[i] {
					l2Addrs[m] = lanes.Addrs[i]
					l2Nows[m] = lanes.Nows[i]
					m++
				}
			}
			l2.AccessBatchHits(l2Addrs[:m], l2Writes[:m], l2Nows[:m], l2Hits[:m])
		}
		return missRates{L1: l1.Stats().MissRate(), L2: l2.Stats().MissRate()}, nil
	}}
}

// mixedCoverageCell runs LT-cords over two programs alternating execution
// on one core with shared caches and shared predictor state (fig11): the
// N=2 consolidation stream (partner shifted to a disjoint physical range
// and tagged with context 1) driven through the monolithic coverage run.
func (o Options) mixedCoverageCell(subject, partner workload.Preset, qSubj, qPart uint64, params core.Params) runner.Task[sim.Coverage] {
	key := fmt.Sprintf("mixcov|%s|%s+%s|q%d/%d|pf=lt{%s}", o.cellKey(subject), subject.Name, partner.Name, qSubj, qPart, fp(params))
	return runner.Task[sim.Coverage]{Key: key, Codec: resultCodec, Run: func() (sim.Coverage, error) {
		srcs, quanta, err := o.consolCursors([]workload.ConsolProgram{
			{Preset: subject, Quantum: qSubj},
			{Preset: partner, Quantum: qPart},
		})
		if err != nil {
			return sim.Coverage{}, err
		}
		mixed, err := workload.ConsolidateFrom(srcs, quanta, 0)
		if err != nil {
			return sim.Coverage{}, err
		}
		lt := core.MustNew(sim.PaperL1D(), params)
		return sim.RunCoverage(mixed, lt, sim.Config{})
	}}
}

// shardCoverageCell runs one consolidation context standalone: the
// component stream shifted to its disjoint 4GiB range and tagged with its
// context — exactly the references the interleaved mix routes to shard
// ctx (quantum interleaving with unlimited switches preserves each
// component's references in order), so sim.MergeShards over these cells
// reproduces the serial sharded run byte for byte. The key carries
// neither the quantum nor the mix: a context shared by several mixes
// (the consolidation mixes are prefixes of each other) simulates once.
func (o Options) shardCoverageCell(p workload.Preset, ctx int, params core.Params, cfg sim.Config) runner.Task[sim.Coverage] {
	seed := o.seed() + 7*uint64(ctx)
	key := fmt.Sprintf("covshard|%s|scale%d|seed%d|ctx%d|pf=lt{%s}|%s",
		p.Name, o.Scale, seed, ctx, fp(params), cfg.Fingerprint())
	return runner.Task[sim.Coverage]{Key: key, Codec: resultCodec, Run: func() (sim.Coverage, error) {
		m, err := o.materialized(p, seed)
		if err != nil {
			return sim.Coverage{}, err
		}
		src := trace.Offset(m.Cursor(), mem.Addr(uint64(ctx))<<32, uint8(ctx))
		return sim.RunCoverage(src, core.MustNew(sim.PaperL1D(), params), cfg)
	}}
}

// consolCoverageCell runs one server-consolidation mix with predictor
// state shared across its contexts: every program gets a private cache
// hierarchy (its shard), and one predictor observes the global
// interleaved reference order, so the mix is consolidated and driven
// through sim.Run. The partitioned configuration needs no cell of its
// own: each of its shards is exactly a shardCoverageCell, which runConsol
// submits beside this one and folds with sim.MergeShards.
func (o Options) consolCoverageCell(progs []workload.ConsolProgram, params core.Params) runner.Task[sim.ShardedCoverage] {
	names := make([]string, len(progs))
	quanta := make([]uint64, len(progs))
	for i, p := range progs {
		names[i] = p.Preset.Name
		quanta[i] = p.Quantum
	}
	key := fmt.Sprintf("consolcov|scale%d|seed%d|mix=%s|q=%v|shared=true|pf=lt{%s}",
		o.Scale, o.seed(), strings.Join(names, "+"), quanta, fp(params))
	return runner.Task[sim.ShardedCoverage]{Key: key, Codec: resultCodec, Run: func() (sim.ShardedCoverage, error) {
		srcs, quanta, err := o.consolCursors(progs)
		if err != nil {
			return sim.ShardedCoverage{}, err
		}
		src, err := workload.ConsolidateFrom(srcs, quanta, 0)
		if err != nil {
			return sim.ShardedCoverage{}, err
		}
		// One predictor shared across the mix's private caches: the
		// context-banked mirror (core.NewShared) keeps each cache's
		// history in lockstep, and sequence storage scales with the
		// consolidation degree.
		contexts := len(progs)
		return sim.Run(src,
			func(int) sim.Prefetcher { return core.MustNewShared(sim.PaperL1D(), params, contexts) },
			sim.Config{Contexts: contexts, SharedState: true})
	}}
}

// decileCell measures LT-cords coverage per execution decile
// (convergence) with the one coverage driver every other LT-cords cell
// uses: sim.RunCoverage over the preset's trace, with each reference's Ctx
// rewritten to its decile, min(i/bucket, 9). A standalone predictor and the
// single-hierarchy driver use Ctx only to split the classification, so
// Coverage.Ctx(d) is decile d's share and the totals equal the plain run's.
func (o Options) decileCell(p workload.Preset, params core.Params) runner.Task[sim.Coverage] {
	key := "decile|" + o.cellKey(p) + "|pf=lt{" + fp(params) + "}"
	return runner.Task[sim.Coverage]{Key: key, Codec: resultCodec, Run: func() (sim.Coverage, error) {
		m, err := o.materialized(p, o.seed())
		if err != nil {
			return sim.Coverage{}, err
		}
		bucket := max(m.Refs()/10, 1)
		cur := m.Cursor()
		var n uint64
		deciles := trace.FillFunc(func(buf []trace.Ref) int {
			k := cur.ReadRefs(buf)
			for i := range buf[:k] {
				buf[i].Ctx = uint8(min(n/bucket, 9))
				n++
			}
			return k
		})
		return sim.RunCoverage(deciles, core.MustNew(sim.PaperL1D(), params), sim.Config{})
	}}
}
