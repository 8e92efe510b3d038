package sim_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// consolStream builds a deterministic 4-program consolidation stream,
// materialized so tests can replay and filter it.
func consolStream(t *testing.T, limit uint64) []trace.Ref {
	t.Helper()
	var progs []workload.ConsolProgram
	for _, name := range []string{"gcc", "gzip", "swim", "mcf"} {
		p, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("missing preset %s", name)
		}
		progs = append(progs, workload.ConsolProgram{Preset: p, Quantum: 10_000})
	}
	src, err := workload.Consolidate(progs, workload.Small, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	return trace.Collect(trace.Limit(src, limit), 0)
}

// filterCtx returns the subsequence of refs tagged ctx.
func filterCtx(refs []trace.Ref, ctx uint8) []trace.Ref {
	var out []trace.Ref
	for _, r := range refs {
		if r.Ctx == ctx {
			out = append(out, r)
		}
	}
	return out
}

func newLT(int) sim.Prefetcher { return core.MustNew(sim.PaperL1D(), core.DefaultParams()) }

// TestShardedEquivalence pins the sharded engine's semantics: with
// partitioned predictor state, running the interleaved stream through
// Run must produce, per context, results identical to filtering the
// stream by Ctx and running the monolithic RunCoverage on each slice — private caches, clocks and predictors see exactly the same
// references either way.
func TestShardedEquivalence(t *testing.T) {
	refs := consolStream(t, 400_000)
	const contexts = 4

	var preds []*core.Predictor
	sc, err := sim.Run(trace.NewSliceSource(refs), func(int) sim.Prefetcher {
		p := core.MustNew(sim.PaperL1D(), core.DefaultParams())
		preds = append(preds, p)
		return p
	}, sim.Config{Contexts: contexts})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range preds {
		if d := p.Stats().MirrorDivergences; d != 0 {
			t.Errorf("ctx %d: %d mirror divergences in a partitioned run, want 0", i, d)
		}
	}
	if sc.Refs != uint64(len(refs)) {
		t.Fatalf("merged refs = %d want %d", sc.Refs, len(refs))
	}

	var sumOpp, sumCorrect, sumRefs uint64
	for ctx := 0; ctx < contexts; ctx++ {
		slice := filterCtx(refs, uint8(ctx))
		mono, err := sim.RunCoverage(trace.NewSliceSource(slice), newLT(ctx), sim.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sc.Shards[ctx], mono) {
			t.Errorf("ctx %d: sharded result diverges from filtered monolithic run:\nsharded:    %+v\nmonolithic: %+v",
				ctx, sc.Shards[ctx], mono)
		}
		if sc.PerCtx[ctx] != mono.CtxCoverage {
			t.Errorf("ctx %d: merged PerCtx %+v != monolithic totals %+v", ctx, sc.PerCtx[ctx], mono.CtxCoverage)
		}
		sumOpp += mono.Opportunity
		sumCorrect += mono.Correct
		sumRefs += mono.Refs
	}
	if sc.Opportunity != sumOpp || sc.Correct != sumCorrect || sc.Refs != sumRefs {
		t.Errorf("merge mismatch: merged opp/correct/refs = %d/%d/%d, shard sums = %d/%d/%d",
			sc.Opportunity, sc.Correct, sc.Refs, sumOpp, sumCorrect, sumRefs)
	}
}

// TestShardedWithL2 exercises the per-shard L2 pairs and their merge.
func TestShardedWithL2(t *testing.T) {
	refs := consolStream(t, 150_000)
	sc, err := sim.Run(trace.NewSliceSource(refs), newLT,
		sim.Config{WithL2: true, Contexts: 4})
	if err != nil {
		t.Fatal(err)
	}
	var base, main uint64
	for _, sh := range sc.Shards {
		base += sh.BaseL2Misses
		main += sh.MainL2Misses
	}
	if sc.BaseL2Misses != base || sc.MainL2Misses != main {
		t.Errorf("L2 merge: merged %d/%d, shard sums %d/%d", sc.BaseL2Misses, sc.MainL2Misses, base, main)
	}
	if sc.BaseL2Misses == 0 {
		t.Error("no base L2 misses recorded with WithL2")
	}
}

// TestSharedPredictorMode: one predictor instance observes the whole
// interleaved stream; the run covers every context and classifies the same
// total opportunity as partitioned mode (the base/shadow side is predictor
// independent).
func TestSharedPredictorMode(t *testing.T) {
	refs := consolStream(t, 200_000)
	part, err := sim.Run(trace.NewSliceSource(refs), newLT,
		sim.Config{Contexts: 4})
	if err != nil {
		t.Fatal(err)
	}
	var calls int
	shared, err := sim.Run(trace.NewSliceSource(refs),
		func(ctx int) sim.Prefetcher { calls++; return newLT(ctx) },
		sim.Config{Contexts: 4, SharedState: true})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("shared mode built %d predictors, want 1", calls)
	}
	if shared.Refs != part.Refs || shared.Opportunity != part.Opportunity {
		t.Errorf("shared/partitioned base systems diverge: refs %d/%d opp %d/%d",
			shared.Refs, part.Refs, shared.Opportunity, part.Opportunity)
	}
	for ctx, c := range shared.PerCtx {
		if c.Opportunity == 0 {
			t.Errorf("shared mode: ctx %d saw no opportunity", ctx)
		}
	}
}

// TestSharedStateCoverageRecovers pins the Ctx-aware shared-state fix:
// one core.NewShared predictor across the mix's private caches keeps its
// per-context mirror banks in lockstep (zero divergences) and holds
// meaningful per-context coverage, where the naive unbanked mirror
// (core.New shared across shards) desyncs — set indices collide across
// contexts — and collapses coverage for standalone-trainable programs.
func TestSharedStateCoverageRecovers(t *testing.T) {
	refs := consolStream(t, 400_000)
	const contexts = 4

	part, err := sim.Run(trace.NewSliceSource(refs), newLT, sim.Config{Contexts: contexts})
	if err != nil {
		t.Fatal(err)
	}

	var sharedPred *core.Predictor
	shared, err := sim.Run(trace.NewSliceSource(refs), func(int) sim.Prefetcher {
		sharedPred = core.MustNewShared(sim.PaperL1D(), core.DefaultParams(), contexts)
		return sharedPred
	}, sim.Config{Contexts: contexts, SharedState: true})
	if err != nil {
		t.Fatal(err)
	}
	if d := sharedPred.Stats().MirrorDivergences; d != 0 {
		t.Errorf("banked shared mirror diverged %d times, want 0", d)
	}

	trainable := 0
	for ctx := 0; ctx < contexts; ctx++ {
		pc := part.PerCtx[ctx].CoveragePct()
		sh := shared.PerCtx[ctx].CoveragePct()
		t.Logf("ctx %d: partitioned %.1f%%, shared %.1f%%", ctx, 100*pc, 100*sh)
		if pc < 0.2 {
			continue // not standalone-trainable at this scale
		}
		trainable++
		if sh < pc/2 {
			t.Errorf("ctx %d: shared coverage %.1f%% collapsed vs partitioned %.1f%%",
				ctx, 100*sh, 100*pc)
		}
	}
	if trainable == 0 {
		t.Fatal("no standalone-trainable context in the mix; the recovery assertion checked nothing")
	}

	// Negative control: the unbanked mirror shared across private caches
	// must diverge — the stat is what turns the silent way-0 corruption
	// into an observable failure.
	var naive *core.Predictor
	if _, err := sim.Run(trace.NewSliceSource(refs), func(int) sim.Prefetcher {
		naive = core.MustNew(sim.PaperL1D(), core.DefaultParams())
		return naive
	}, sim.Config{Contexts: contexts, SharedState: true}); err != nil {
		t.Fatal(err)
	}
	if naive.Stats().MirrorDivergences == 0 {
		t.Error("unbanked shared mirror reported no divergences; the desync went unobserved")
	}
}

// TestShardedParallelEquivalence pins the intra-run guarantee: the
// parallel demux (Run at Workers > 1) and per-context RunCoverage runs
// merged by MergeShards both produce results byte-identical to the
// serial sharded run — which TestShardedEquivalence in turn pins to the
// per-Ctx-filtered monolithic runs — at any worker count. Runs under -race to catch
// sharing bugs between the pump, the shard workers and the merge.
func TestShardedParallelEquivalence(t *testing.T) {
	limit := uint64(400_000)
	if testing.Short() {
		limit = 120_000
	}
	refs := consolStream(t, limit)
	const contexts = 4

	serial, err := sim.Run(trace.NewSliceSource(refs), newLT, sim.Config{Contexts: contexts})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 4, 8} {
		par, err := sim.Run(trace.NewSliceSource(refs), newLT,
			sim.Config{Contexts: contexts, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(par, serial) {
			t.Errorf("Workers=%d: parallel demux diverges from serial run", workers)
		}
	}

	// Per-context runs merged: the Ctx-filtered subsequences are exactly
	// what the demux routes to each shard, so standalone RunCoverage runs
	// over them, folded by MergeShards, must reproduce the same result —
	// the path exp takes for partitioned consolidation mixes.
	shards := make([]sim.Coverage, contexts)
	for ctx := range shards {
		shards[ctx], err = sim.RunCoverage(trace.NewSliceSource(filterCtx(refs, uint8(ctx))), newLT(ctx), sim.Config{})
		if err != nil {
			t.Fatal(err)
		}
	}
	if merged := sim.MergeShards(shards); !reflect.DeepEqual(merged, serial) {
		t.Error("per-context RunCoverage + MergeShards diverges from serial interleaved run")
	}

	// WithL2 exercises the per-shard L2 pairs under the parallel demux.
	l2serial, err := sim.Run(trace.NewSliceSource(refs), newLT,
		sim.Config{WithL2: true, Contexts: contexts})
	if err != nil {
		t.Fatal(err)
	}
	l2par, err := sim.Run(trace.NewSliceSource(refs), newLT,
		sim.Config{WithL2: true, Contexts: contexts, Workers: contexts})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(l2par, l2serial) {
		t.Error("WithL2 parallel demux diverges from serial run")
	}
}

// TestShardedSparseContexts: a mix whose streams skip context indices
// (here ctx 1 of 3 never appears) must merge correctly — the regression
// the dense-0..N-1 assumption in the old merge invited.
func TestShardedSparseContexts(t *testing.T) {
	// Keep only contexts 0 and 2 of the 4-program stream: with Contexts=3
	// that leaves a hole at index 1.
	full := consolStream(t, 150_000)
	var refs []trace.Ref
	for _, r := range full {
		if r.Ctx == 0 || r.Ctx == 2 {
			refs = append(refs, r)
		}
	}
	for _, workers := range []int{1, 3} {
		sc, err := sim.Run(trace.NewSliceSource(refs), newLT,
			sim.Config{Contexts: 3, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if sc.Refs != uint64(len(refs)) {
			t.Fatalf("workers=%d: merged refs = %d want %d", workers, sc.Refs, len(refs))
		}
		if sc.Predictor == "" {
			t.Errorf("workers=%d: merged Predictor empty on a sparse mix", workers)
		}
		if sc.Shards[1].Refs != 0 || sc.PerCtx[1] != (sim.CtxCoverage{}) {
			t.Errorf("workers=%d: skipped context 1 accumulated state: %+v", workers, sc.Shards[1])
		}
		if sc.Shards[0].Refs == 0 || sc.Shards[2].Refs == 0 {
			t.Errorf("workers=%d: populated contexts empty: %d/%d refs", workers, sc.Shards[0].Refs, sc.Shards[2].Refs)
		}
		if got := sc.Shards[0].Refs + sc.Shards[2].Refs; got != sc.Refs {
			t.Errorf("workers=%d: shard refs %d don't sum to merged %d", workers, got, sc.Refs)
		}
	}

	// MergeShards directly: an empty leading shard must not blank the
	// merged predictor name, and sums must skip nothing.
	merged := sim.MergeShards([]sim.Coverage{{}, {Predictor: "x", Refs: 5, CtxCoverage: sim.CtxCoverage{Opportunity: 3, Correct: 2}}})
	if merged.Predictor != "x" || merged.Refs != 5 || merged.Opportunity != 3 {
		t.Errorf("MergeShards sparse = %+v", merged.Coverage)
	}
	if merged.PerCtx[0] != (sim.CtxCoverage{}) || merged.PerCtx[1].Correct != 2 {
		t.Errorf("MergeShards PerCtx = %+v", merged.PerCtx)
	}
}

// TestShardedCtxGuards: out-of-range context tags and shard counts fail
// loudly instead of aliasing into the wrong shard.
func TestShardedCtxGuards(t *testing.T) {
	refs := []trace.Ref{{Addr: 0x1000, Ctx: 0}, {Addr: 0x2000, Ctx: 3}}
	_, err := sim.Run(trace.NewSliceSource(refs), newLT, sim.Config{Contexts: 2})
	if err == nil || !strings.Contains(err.Error(), "context 3") {
		t.Errorf("ctx 3 with 2 shards: err = %v, want context named", err)
	}
	for _, n := range []int{0, -1, sim.MaxShards + 1} {
		if _, err := sim.Run(trace.NewSliceSource(nil), newLT, sim.Config{Contexts: n}); err == nil {
			t.Errorf("Contexts=%d must be rejected", n)
		}
	}
	if _, err := sim.Run(trace.NewSliceSource(nil), newLT, sim.Config{Contexts: 8}); err != nil {
		t.Errorf("empty stream must succeed: %v", err)
	}
}
