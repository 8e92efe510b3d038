// Batch-first cache driving: how to pump reference batches straight into
// the cache layer (the DESIGN.md §9 contract) when building a custom
// analysis instead of using the sim drivers. Two idioms:
//
//  1. AccessBatch — full per-access results (hits, eviction records);
//  2. AccessBatchHits — same state evolution, hit bits only, for
//     base-system modeling where eviction details are never consumed.
//
// The scalar Access remains available as a one-element adapter, but new
// code that holds whole batches should not drip references through it.
//
//	go run ./examples/batchcache
package main

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	// Two arrays of ~45KB each against a 64KB L1D: enough reuse for the
	// policies to differ, enough overcommit for real evictions.
	mkSrc := func() trace.Source {
		return workload.ArraySweep(workload.SweepConfig{
			Base: 0x1000_0000, Arrays: 2, Elems: 600, Stride: 64, Iters: 6,
			StoreEvery: 4, GatherFrac: 0.25, PCBase: 0x400000, Seed: 9,
		})
	}
	src := mkSrc()

	// The paper's LRU L1D and a FIFO-replacement twin: one batched stream
	// measures both policies in a single walk.
	l1 := cache.MustNew(sim.PaperL1D())
	fifoCfg := sim.PaperL1D()
	fifoCfg.Name, fifoCfg.Policy = "L1D-fifo", cache.FIFO
	fifo := cache.MustNew(fifoCfg)

	// Caller-owned batch lanes, allocated once and reused: the steady
	// state of this loop performs no per-reference heap allocation.
	// trace.BatchLanes implements the shared prep rule (the instruction
	// clock advances by Gap+1 per reference).
	refs := make([]trace.Ref, trace.DefaultBatch)
	lanes := trace.NewBatchLanes(trace.DefaultBatch)
	resA := make([]cache.AccessResult, trace.DefaultBatch)
	resB := make([]cache.AccessResult, trace.DefaultBatch)

	var dirtyEvicts uint64
	for {
		n := src.ReadRefs(refs)
		if n == 0 {
			break
		}
		lanes.Fill(refs[:n])
		// The full results are available per access for custom
		// bookkeeping.
		l1.AccessBatch(lanes.Addrs[:n], lanes.Writes[:n], lanes.Nows[:n], resA[:n])
		fifo.AccessBatch(lanes.Addrs[:n], lanes.Writes[:n], lanes.Nows[:n], resB[:n])
		for i := 0; i < n; i++ {
			if resA[i].Evicted.Valid && resA[i].Evicted.Dirty {
				dirtyEvicts++
			}
		}
	}

	a, b := l1.Stats(), fifo.Stats()
	fmt.Printf("one pass, two replacement policies (%d refs):\n", a.Accesses)
	fmt.Printf("  %-8s  %5.2f%% miss rate\n", l1.Config().Name, a.MissRate()*100)
	fmt.Printf("  %-8s  %5.2f%% miss rate (FIFO vs LRU: %+.2f%%)\n",
		fifo.Config().Name, b.MissRate()*100, (b.MissRate()-a.MissRate())*100)
	fmt.Printf("  dirty evictions observed via batch results: %d\n", dirtyEvicts)

	// Hit-bits-only modeling: replay the same workload against a half-size
	// cache where only the hit/miss outcome matters.
	small := cache.MustNew(cache.Config{Name: "L1D-32K", Size: 32 * mem.KiB, BlockSize: 64, Assoc: 2})
	src = mkSrc()
	hits := make([]bool, trace.DefaultBatch)
	lanes = trace.NewBatchLanes(trace.DefaultBatch)
	for {
		n := src.ReadRefs(refs)
		if n == 0 {
			break
		}
		lanes.Fill(refs[:n])
		small.AccessBatchHits(lanes.Addrs[:n], lanes.Writes[:n], lanes.Nows[:n], hits[:n])
	}
	fmt.Printf("  %-8s  %5.2f%% miss rate (hit-bits-only batch path)\n",
		small.Config().Name, small.Stats().MissRate()*100)
}
