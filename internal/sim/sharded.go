package sim

import (
	"fmt"

	"repro/internal/trace"
)

// MaxShards is the largest shard count Run accepts — the size of the
// trace.Ref.Ctx tag space.
const MaxShards = trace.MaxContexts

// ShardedCoverage is the result of a sharded run: the merged whole-machine
// view plus each context's full standalone result.
type ShardedCoverage struct {
	// Coverage is the merge across shards (see DESIGN.md §8 for the merge
	// rules): counters are summed, and PerCtx[i] is shard i's
	// classification.
	Coverage
	// Shards holds each context's complete coverage result, indexed by
	// trace.Ref.Ctx.
	Shards []Coverage
}

// MergeShards folds per-shard coverage results into the whole-machine
// view: counters are summed in context-index order (the deterministic
// merge Run and the per-context cells of a partitioned mix share), and
// PerCtx[i] is shard i's own
// classification. The merge tolerates sparse mixes: a context that never
// appeared contributes an all-zero Coverage, and the merged Predictor
// name comes from the first shard that carries one rather than assuming
// shard 0 ran.
func MergeShards(shards []Coverage) ShardedCoverage {
	out := ShardedCoverage{Shards: append([]Coverage(nil), shards...)}
	m := &out.Coverage
	m.PerCtx = make([]CtxCoverage, len(shards))
	for i, c := range shards {
		if m.Predictor == "" && c.Predictor != "" {
			m.Predictor = c.Predictor
		}
		m.Refs += c.Refs
		m.Instrs += c.Instrs
		m.CtxCoverage.add(c.CtxCoverage)
		m.MainL1Misses += c.MainL1Misses
		m.Prefetches += c.Prefetches
		m.BaseL2Misses += c.BaseL2Misses
		m.MainL2Misses += c.MainL2Misses
		m.PerCtx[i] = c.CtxCoverage
	}
	return out
}

// Run drives one interleaved multi-context stream through per-context
// shards: each reference is routed by its Ctx tag to that context's
// private cache hierarchy, clock and classification state, in stream
// order. newPF builds the predictor state: once (ctx 0) when
// cfg.SharedState is set, else once per shard. Run is serial; with
// partitioned state each shard equals a standalone RunCoverage over its
// context's references, so a caller that wants the shards in parallel
// runs them as cells of their own and folds them with MergeShards.
func Run(src trace.Source, newPF func(ctx int) Prefetcher, cfg Config) (ShardedCoverage, error) {
	if cfg.Contexts < 1 || cfg.Contexts > MaxShards {
		return ShardedCoverage{}, fmt.Errorf("sim: %d contexts outside the supported 1..%d (trace.Ref.Ctx is uint8)",
			cfg.Contexts, MaxShards)
	}
	cfg.applyDefaults()
	shards := make([]*covShard, cfg.Contexts)
	var shared Prefetcher
	if cfg.SharedState {
		shared = newPF(0)
	}
	for i := range shards {
		pf := shared
		if pf == nil {
			pf = newPF(i)
		}
		sh, err := newCovShard(&cfg, pf)
		if err != nil {
			return ShardedCoverage{}, err
		}
		shards[i] = sh
	}
	if err := demux(src, shards, cfg.Contexts); err != nil {
		return ShardedCoverage{}, err
	}

	finished := make([]Coverage, len(shards))
	for i, sh := range shards {
		finished[i] = sh.finish()
	}
	return MergeShards(finished), nil
}

// demux pumps the stream on the calling goroutine. Quantum
// interleaving yields long runs of one context, so the batch is segmented
// into maximal same-Ctx runs and each run flows into its shard as one
// stepBatch call: the batched base-system lookups keep near-full batch
// width, and references are still dispatched in stream order (a shared
// predictor observes the same global order the monolithic driver would).
// The hot path keeps the zero-alloc batch contract: one fixed batch
// buffer pumps the source.
func demux(src trace.Source, shards []*covShard, contexts int) error {
	refBuf := make([]trace.Ref, trace.DefaultBatch)
	for {
		nrefs := src.ReadRefs(refBuf)
		if nrefs == 0 {
			return nil
		}
		for start := 0; start < nrefs; {
			ctx := refBuf[start].Ctx
			if int(ctx) >= contexts {
				return fmt.Errorf("sim: reference context %d outside the configured %d shards", ctx, contexts)
			}
			end := start + 1
			for end < nrefs && refBuf[end].Ctx == ctx {
				end++
			}
			shards[ctx].stepBatch(refBuf[start:end])
			start = end
		}
	}
}
