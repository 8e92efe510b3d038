package sim

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/trace"
)

// Config parameterizes a coverage run: the cache hierarchy every shard
// instantiates, plus the run topology (shard count, predictor-state
// sharing, intra-run worker count). RunCoverage is the single-hierarchy
// special case (one shard consuming the whole stream); Run is the sharded
// multi-context engine, and both consume the same Config.
type Config struct {
	// L1 is the L1D configuration (default: PaperL1D).
	L1 cache.Config
	// L2 is the L2 configuration; WithL2 enables the second level so that
	// off-chip (L2) miss elimination can be measured too.
	L2     cache.Config
	WithL2 bool

	// Contexts is the shard count for Run: references must carry Ctx tags
	// in [0, Contexts); an out-of-range tag fails the run (no silent
	// aliasing of contexts). RunCoverage — the single-hierarchy case where
	// every context shares one cache — rejects Contexts > 1.
	Contexts int
	// SharedState, when true, routes every context's references through a
	// single predictor instance in stream order — consolidated cores
	// sharing predictor state, the premise of the paper's Figure 11. When
	// false each shard owns a private predictor (partitioned state), which
	// makes every shard exactly equivalent to a standalone RunCoverage
	// over that context's references. Shared state requires the global
	// stream order, so such runs stay serial regardless of Workers.
	SharedState bool
	// Workers bounds the goroutines a single Run may use (0 or 1 =
	// serial). Results are byte-identical at any worker count: every
	// shard's references are processed in stream order by exactly one
	// goroutine and the merge folds shards in context order.
	Workers int
}

// applyDefaults resolves zero-valued cache configurations to the paper's.
func (cfg *Config) applyDefaults() {
	if cfg.L1.Size == 0 {
		cfg.L1 = PaperL1D()
	}
	if cfg.WithL2 && cfg.L2.Size == 0 {
		cfg.L2 = PaperL2()
	}
}

// CtxCoverage is the per-context (per-program) classification used by the
// multi-programmed experiments.
type CtxCoverage struct {
	Opportunity uint64 // base-system misses
	Correct     uint64 // misses eliminated by the predictor
	Incorrect   uint64 // misses with an active wrong prediction
	Train       uint64 // misses with no confident prediction
	Early       uint64 // extra misses induced by the predictor
}

// add folds another classification into c (shard merging).
func (c *CtxCoverage) add(o CtxCoverage) {
	c.Opportunity += o.Opportunity
	c.Correct += o.Correct
	c.Incorrect += o.Incorrect
	c.Train += o.Train
	c.Early += o.Early
}

// Coverage is the result of a coverage run.
type Coverage struct {
	Predictor string
	Refs      uint64
	Instrs    uint64

	// L1-level classification, summed over contexts.
	CtxCoverage
	// PerCtx splits the classification by trace.Ref.Ctx, indexed by context
	// id and sized to the highest context observed (single-program runs
	// have one entry; consolidation mixes one per program).
	PerCtx []CtxCoverage

	// MainL1Misses is the with-predictor L1 miss count.
	MainL1Misses uint64
	// Prefetches counts issued (inserted) prefetches.
	Prefetches uint64
	// L2 miss counts with and without the predictor (off-chip accesses),
	// valid when the run was configured WithL2.
	BaseL2Misses uint64
	MainL2Misses uint64
}

// Ctx returns the classification of context i (zero if i was never seen).
func (c Coverage) Ctx(i int) CtxCoverage {
	if i < 0 || i >= len(c.PerCtx) {
		return CtxCoverage{}
	}
	return c.PerCtx[i]
}

// CoveragePct returns eliminated misses as a fraction of opportunity.
func (c CtxCoverage) CoveragePct() float64 {
	if c.Opportunity == 0 {
		return 0
	}
	return float64(c.Correct) / float64(c.Opportunity)
}

// IncorrectPct returns wrongly predicted misses as a fraction of opportunity.
func (c CtxCoverage) IncorrectPct() float64 {
	if c.Opportunity == 0 {
		return 0
	}
	return float64(c.Incorrect) / float64(c.Opportunity)
}

// TrainPct returns unpredicted misses as a fraction of opportunity.
func (c CtxCoverage) TrainPct() float64 {
	if c.Opportunity == 0 {
		return 0
	}
	return float64(c.Train) / float64(c.Opportunity)
}

// EarlyPct returns predictor-induced misses as a fraction of opportunity
// (plotted above 100% in the paper's Figure 8).
func (c CtxCoverage) EarlyPct() float64 {
	if c.Opportunity == 0 {
		return 0
	}
	return float64(c.Early) / float64(c.Opportunity)
}

// L2CoveragePct returns the fraction of off-chip misses eliminated.
func (c Coverage) L2CoveragePct() float64 {
	if c.BaseL2Misses == 0 {
		return 0
	}
	elim := float64(c.BaseL2Misses) - float64(c.MainL2Misses)
	if elim < 0 {
		elim = 0
	}
	return elim / float64(c.BaseL2Misses)
}

// covShard is the private state of one coverage context: its own main and
// shadow hierarchies, pending-prediction map, instruction clock and
// classification counters. RunCoverage is a single shard consuming the
// whole stream; Run routes each reference to its context's shard, so the
// two drivers classify by the exact same rules.
type covShard struct {
	cfg              *Config
	geo              mem.Geometry
	main, shadow     *cache.Cache
	mainL2, shadowL2 *cache.Cache
	pf               Prefetcher
	early            EarlyEvictionObserver
	filler           PrefetchFillObserver
	ctxFiller        CtxPrefetchFillObserver
	// pending[set] records the most recent predicted replacement block for
	// the set, to distinguish incorrect from train on a miss. It is a
	// dense per-set lane (set counts are small and fixed): the value is
	// the predicted block with bit 0 set as a presence marker (block
	// addresses are block-aligned, so bit 0 is free), 0 when no
	// prediction is outstanding.
	pending []mem.Addr
	// predBuf is the prediction scratch the prefetcher appends into;
	// evSlot/fillSlot are the eviction-info slots whose addresses are
	// passed to the predictor hooks (hooks must not retain them). All are
	// reused every reference: steady-state simulation allocates nothing.
	predBuf          []Prediction
	evSlot, fillSlot cache.EvictInfo
	now              uint64
	cov              Coverage

	// Batch scratch, reused across every stepBatch call (zero steady-state
	// allocation): the address/write/clock lanes handed to the cache
	// batch entry point, the shadow hit lane, and the compacted shadow-L2
	// miss stream for WithL2 runs.
	lanes    *trace.BatchLanes
	bHits    []bool
	l2Addrs  []mem.Addr
	l2Writes []bool
	l2Nows   []uint64
	l2Hits   []bool
}

// newCovShard builds one shard's caches and scratch. cfg must already have
// defaults applied; it is shared between shards and must not be mutated.
func newCovShard(cfg *Config, pf Prefetcher) (*covShard, error) {
	s := &covShard{cfg: cfg, pf: pf}
	var err error
	if s.main, err = cache.New(cfg.L1); err != nil {
		return nil, fmt.Errorf("sim: main L1: %w", err)
	}
	shadowCfg := cfg.L1
	shadowCfg.Name = cfg.L1.Name + "-shadow"
	if s.shadow, err = cache.New(shadowCfg); err != nil {
		return nil, fmt.Errorf("sim: shadow L1: %w", err)
	}
	if cfg.WithL2 {
		if s.mainL2, err = cache.New(cfg.L2); err != nil {
			return nil, fmt.Errorf("sim: main L2: %w", err)
		}
		sl2 := cfg.L2
		sl2.Name += "-shadow"
		if s.shadowL2, err = cache.New(sl2); err != nil {
			return nil, fmt.Errorf("sim: shadow L2: %w", err)
		}
	}
	s.geo = s.main.Geometry()
	s.early, _ = pf.(EarlyEvictionObserver)
	s.filler, _ = pf.(PrefetchFillObserver)
	s.ctxFiller, _ = pf.(CtxPrefetchFillObserver)
	// The pending lane steals bit 0 of the block address as its presence
	// marker (see the field comment), which requires blocks of at least
	// two bytes; no real cache is sub-word, so reject rather than alias.
	if s.geo.BlockSize() < 2 {
		return nil, fmt.Errorf("sim: coverage requires L1 block size >= 2 bytes, got %d", s.geo.BlockSize())
	}
	s.pending = make([]mem.Addr, s.geo.Sets())
	s.predBuf = make([]Prediction, 0, 16)
	s.cov = Coverage{Predictor: pf.Name()}
	s.lanes = trace.NewBatchLanes(trace.DefaultBatch)
	s.grow(trace.DefaultBatch)
	return s, nil
}

// grow sizes the batch scratch lanes for batches of up to n references
// (the address/write/clock lanes grow inside BatchLanes.Fill).
func (s *covShard) grow(n int) {
	s.bHits = make([]bool, n)
	if s.cfg.WithL2 {
		s.l2Addrs = make([]mem.Addr, n)
		s.l2Writes = make([]bool, n)
		s.l2Nows = make([]uint64, n)
		s.l2Hits = make([]bool, n)
	}
}

// stepBatch advances the shard by a batch of committed references. The
// base (shadow) hierarchy sees demand references only — nothing the
// predictor does on the main side can interleave with it — so the whole
// batch goes through cache.AccessBatchHits in one pass: the shadow L1 over
// every reference, then the shadow L2 over the compacted shadow-miss
// stream. The main side stays per-reference (prefetch fills issued for
// reference i must land before reference i+1's lookup) but reuses the
// batch lanes and the already-extracted set/tag, so the shadow+main double
// lookup shares its index/tag work. Classification is byte-identical to
// the historical one-reference step.
func (s *covShard) stepBatch(refs []trace.Ref) {
	n := len(refs)
	if n == 0 {
		return
	}
	if n > len(s.bHits) {
		s.grow(n)
	}
	s.lanes.Fill(refs)
	s.now = s.lanes.Clock()
	addrs, writes, nows := s.lanes.Addrs, s.lanes.Writes, s.lanes.Nows
	maxCtx := 0
	for i := range refs {
		if c := int(refs[i].Ctx); c > maxCtx {
			maxCtx = c
		}
	}
	s.cov.Refs += uint64(n)
	if maxCtx >= len(s.cov.PerCtx) {
		// Grow to the highest context observed (at most 256 entries, a
		// handful of growths per run — the per-batch cost is one compare).
		s.cov.PerCtx = append(s.cov.PerCtx, make([]CtxCoverage, maxCtx+1-len(s.cov.PerCtx))...)
	}

	// Only the base hit/miss outcome (and aggregate Stats) are consumed,
	// so the results-free batch path applies.
	s.shadow.AccessBatchHits(addrs[:n], writes[:n], nows[:n], s.bHits[:n])
	if s.cfg.WithL2 {
		m := 0
		for i := 0; i < n; i++ {
			if !s.bHits[i] {
				s.l2Addrs[m] = addrs[i]
				s.l2Writes[m] = writes[i]
				s.l2Nows[m] = nows[i]
				m++
			}
		}
		s.shadowL2.AccessBatchHits(s.l2Addrs[:m], s.l2Writes[:m], s.l2Nows[:m], s.l2Hits[:m])
	}

	for i := range refs {
		s.stepMain(refs[i], s.bHits[i], writes[i], nows[i])
	}
}

// stepMain runs the main (predictor-equipped) side of one reference and
// classifies it against the already-computed base (shadow) hit outcome.
func (s *covShard) stepMain(ref trace.Ref, baseHit bool, write bool, now uint64) {
	block := s.geo.BlockAddr(ref.Addr)
	set := s.geo.Index(ref.Addr)
	ctx := int(ref.Ctx)

	mres := s.main.AccessIndexed(set, s.geo.Tag(ref.Addr), write, now)
	if s.cfg.WithL2 && !mres.Hit {
		s.mainL2.Access(ref.Addr, write, now)
	}

	// Classification against the base system.
	if !baseHit {
		s.cov.Opportunity++
		s.cov.PerCtx[ctx].Opportunity++
		switch {
		case mres.Hit:
			s.cov.Correct++
			s.cov.PerCtx[ctx].Correct++
		default:
			if want := s.pending[set]; want != 0 && want&^1 != block {
				s.cov.Incorrect++
				s.cov.PerCtx[ctx].Incorrect++
			} else {
				s.cov.Train++
				s.cov.PerCtx[ctx].Train++
			}
		}
	} else if !mres.Hit {
		// The base system hits but the predictor-equipped system
		// misses: a premature eviction induced by the predictor.
		s.cov.Early++
		s.cov.PerCtx[ctx].Early++
		if s.early != nil {
			s.early.OnEarlyEviction(block)
		}
	}
	if !mres.Hit {
		s.pending[set] = 0
	}

	var evicted *cache.EvictInfo
	if mres.Evicted.Valid {
		s.evSlot = mres.Evicted
		evicted = &s.evSlot
	}
	s.predBuf = s.pf.OnAccess(ref, mres.Hit, evicted, s.predBuf[:0])
	for _, p := range s.predBuf {
		pblock := s.geo.BlockAddr(p.Addr)
		if pblock == block {
			continue // fetching the block being accessed is pointless
		}
		if p.ToL2 {
			// L2-targeted prefetch: fills the L2 only (no L1 effect in
			// trace mode; the timing model charges the latency win).
			if s.cfg.WithL2 {
				s.cov.Prefetches++
				s.mainL2.InsertPrefetch(pblock, 0, false, now)
			}
			continue
		}
		if ev, inserted := s.main.InsertPrefetch(pblock, p.Victim, p.UseVictim, now); inserted {
			s.cov.Prefetches++
			s.pending[s.geo.Index(pblock)] = pblock | 1
			if s.filler != nil || s.ctxFiller != nil {
				var ep *cache.EvictInfo
				if ev.Valid {
					s.fillSlot = ev
					ep = &s.fillSlot
				}
				// The fill landed in the current reference's context's
				// cache: context-aware mirrors get that ctx, so shared
				// predictor state updates the right bank.
				if s.ctxFiller != nil {
					s.ctxFiller.OnCtxPrefetchFill(int(ref.Ctx), pblock, ep)
				} else {
					s.filler.OnPrefetchFill(pblock, ep)
				}
			}
			if s.cfg.WithL2 {
				// The prefetch is serviced through the L2; the fill is
				// a prefetch insert so demand-miss accounting stays
				// clean.
				s.mainL2.InsertPrefetch(pblock, 0, false, now)
			}
		}
	}
}

// finish seals the shard's result: derived totals and the PerCtx slice
// trimmed to the contexts actually observed.
func (s *covShard) finish() Coverage {
	s.cov.Instrs = s.now
	s.cov.MainL1Misses = s.main.Stats().Misses
	if s.cfg.WithL2 {
		s.cov.BaseL2Misses = s.shadowL2.Stats().Misses
		s.cov.MainL2Misses = s.mainL2.Stats().Misses
	}
	return s.cov
}

// RunCoverage drives src through an L1D with the predictor attached and a
// shadow L1D without it, classifying every base-system miss. It is the
// single-hierarchy special case of Run: one shard consumes the whole
// stream, so every context shares the caches and the predictor (the
// paper's Figure 11 setup), and the classification still splits per
// context into PerCtx. Multi-shard topologies (cfg.Contexts > 1) go
// through Run; cfg.Workers is irrelevant here (one shard is one
// goroutine's worth of strictly ordered work).
func RunCoverage(src trace.Source, pf Prefetcher, cfg Config) (Coverage, error) {
	if cfg.Contexts > 1 {
		return Coverage{}, fmt.Errorf("sim: RunCoverage is the single-shard case; use Run for %d contexts", cfg.Contexts)
	}
	cfg.applyDefaults()
	sh, err := newCovShard(&cfg, pf)
	if err != nil {
		return Coverage{}, err
	}
	// Fixed batch buffer reused across the whole run (see DESIGN.md §7);
	// whole batches flow into the shard so the base-system lookups run
	// through cache.AccessBatchHits.
	refBuf := make([]trace.Ref, trace.DefaultBatch)
	for {
		nrefs := src.ReadRefs(refBuf)
		if nrefs == 0 {
			break
		}
		sh.stepBatch(refBuf[:nrefs])
	}
	return sh.finish(), nil
}
