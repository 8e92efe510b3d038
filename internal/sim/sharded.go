package sim

import (
	"fmt"
	"sync"

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
// merge every execution strategy — serial demux, parallel demux,
// per-context sources — shares), and PerCtx[i] is shard i's own
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
// cfg.SharedState is set, else once per shard.
//
// cfg.Workers > 1 executes partitioned shards on worker goroutines — the
// stream is demultiplexed into per-context segments and each shard's
// segments are consumed, in stream order, by the one worker that owns the
// shard — and the results are byte-identical to the serial run (see
// DESIGN.md §11 for the ownership and merge rules). Shared predictor
// state needs the global stream order, so it forces the serial path.
// When Workers > 1, newPF must be safe to call from concurrent goroutines.
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

	workers := cfg.Workers
	if cfg.SharedState {
		workers = 1
	}
	if workers > len(shards) {
		workers = len(shards)
	}
	var err error
	if workers > 1 {
		err = demuxParallel(src, shards, workers, cfg.Contexts)
	} else {
		err = demuxSerial(src, shards, cfg.Contexts)
	}
	if err != nil {
		return ShardedCoverage{}, err
	}

	finished := make([]Coverage, len(shards))
	for i, sh := range shards {
		finished[i] = sh.finish()
	}
	return MergeShards(finished), nil
}

// demuxSerial pumps the stream on the calling goroutine. Quantum
// interleaving yields long runs of one context, so the batch is segmented
// into maximal same-Ctx runs and each run flows into its shard as one
// stepBatch call: the batched base-system lookups keep near-full batch
// width, and references are still dispatched in stream order (a shared
// predictor observes the same global order the monolithic driver would).
// The hot path keeps the zero-alloc batch contract: one fixed batch
// buffer pumps the source.
func demuxSerial(src trace.Source, shards []*covShard, contexts int) error {
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

// shardBatch is one same-context segment in flight to a demux worker.
type shardBatch struct {
	shard int
	refs  []trace.Ref
}

// demuxParallel pumps the stream on the calling goroutine and executes
// shards on worker goroutines. Shard ownership is static — shard s is
// consumed by worker s%workers — so each shard's segments are processed
// by exactly one goroutine, in the order the pump (which reads the stream
// serially) sent them: per-shard reference order is the stream order, and
// with partitioned predictor state that makes the results byte-identical
// to demuxSerial. Segment buffers circulate through a fixed prefilled
// pool — the pool holds every buffer that exists and its capacity equals
// that count, so the pump's take blocks only as backpressure (a worker
// still owns every buffer) and the workers' return can never block: the
// steady state allocates nothing.
func demuxParallel(src trace.Source, shards []*covShard, workers, contexts int) error {
	queues := make([]chan shardBatch, workers)
	for i := range queues {
		queues[i] = make(chan shardBatch, 4)
	}
	// Pool sizing: up to 4 segments queued plus one being stepped per
	// worker, plus one in the pump's hand; workers*8 covers that with
	// slack so the pump only ever waits when all workers are saturated.
	free := make(chan []trace.Ref, workers*8)
	for i := 0; i < cap(free); i++ {
		free <- make([]trace.Ref, 0, trace.DefaultBatch)
	}
	var wg sync.WaitGroup
	for _, q := range queues {
		wg.Add(1)
		go func(q chan shardBatch) {
			defer wg.Done()
			for m := range q {
				shards[m.shard].stepBatch(m.refs)
				free <- m.refs
			}
		}(q)
	}

	var err error
	refBuf := make([]trace.Ref, trace.DefaultBatch)
pump:
	for {
		nrefs := src.ReadRefs(refBuf)
		if nrefs == 0 {
			break
		}
		for start := 0; start < nrefs; {
			ctx := refBuf[start].Ctx
			if int(ctx) >= contexts {
				err = fmt.Errorf("sim: reference context %d outside the configured %d shards", ctx, contexts)
				break pump
			}
			end := start + 1
			for end < nrefs && refBuf[end].Ctx == ctx {
				end++
			}
			seg := <-free
			seg = append(seg[:0], refBuf[start:end]...)
			queues[int(ctx)%workers] <- shardBatch{shard: int(ctx), refs: seg}
			start = end
		}
	}
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
	return err
}
