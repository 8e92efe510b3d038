// Package sim wires prefetchers to the memory hierarchy. It defines the
// Prefetcher interface every predictor implements (LT-cords, DBCP, GHB)
// and the trace-driven coverage driver that reproduces the paper's
// coverage/accuracy methodology (Sections 5.1-5.6): a shadow cache with no
// prefetching supplies the prediction opportunity (the misses of the base
// system), and each opportunity miss is classified as correct (eliminated),
// incorrect (a prediction was active but fetched the wrong block) or train
// (no confident prediction); predictor-induced misses are counted as early.
package sim

import (
	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/trace"
)

// Prediction is one prefetch request issued by a predictor.
type Prediction struct {
	// Addr is the block to fetch (any address within the block).
	Addr mem.Addr
	// Victim is the block the prefetched data should replace (dead-block
	// replacement). Only used when UseVictim is true; otherwise the cache's
	// replacement policy chooses.
	Victim    mem.Addr
	UseVictim bool
	// ToL2 targets the prefetch at the L2 instead of the L1D. Conventional
	// prefetchers (GHB) fetch into the L2 to avoid polluting the small L1;
	// only last-touch predictors can place data directly in the L1D,
	// because they know which block is dead (paper Section 5.7: "Unlike
	// GHB, LT-cords is able to prefetch directly into L1D without
	// pollution").
	ToL2 bool
}

// Prefetcher observes the committed L1D reference stream and issues
// prefetches. OnAccess is called once per reference, after the L1D processed
// it; evicted is non-nil if the access displaced a valid line (predictors
// record last-touch signatures at that moment). Implementations must be
// deterministic.
type Prefetcher interface {
	// Name identifies the predictor in reports.
	Name() string
	// OnAccess observes one committed reference and appends any prefetches
	// to preds, returning the extended slice (append-style, like
	// strconv.AppendInt). The driver owns preds and reuses it across calls:
	// implementations must not retain it, or the evicted pointer, beyond
	// the call. Issuing no prefetch returns preds unchanged.
	OnAccess(ref trace.Ref, hit bool, evicted *cache.EvictInfo, preds []Prediction) []Prediction
}

// EarlyEvictionObserver is implemented by predictors that lower confidence
// when one of their predictions evicted a block prematurely (the block
// missed again although the base system would have hit).
type EarlyEvictionObserver interface {
	OnEarlyEviction(block mem.Addr)
}

// PrefetchFillObserver is implemented by predictors that mirror the cache's
// tag array (LT-cords and DBCP maintain per-line history state): the driver
// reports every prefetch fill so the mirror sees the displaced block. The
// displaced block's episode ends at that moment, closing the loop that keeps
// signature sequences recorded even when coverage eliminates the demand
// misses.
type PrefetchFillObserver interface {
	OnPrefetchFill(block mem.Addr, evicted *cache.EvictInfo)
}

// CtxPrefetchFillObserver is the context-aware variant of
// PrefetchFillObserver: drivers that route references to per-context
// caches report which context's cache the fill landed in, so a predictor
// shared across private caches (core.NewShared) can update that context's
// mirror bank. Drivers prefer this interface when a prefetcher implements
// it; single-context predictors treat every ctx alike, so the dispatch is
// behavior-preserving for them.
type CtxPrefetchFillObserver interface {
	OnCtxPrefetchFill(ctx int, block mem.Addr, evicted *cache.EvictInfo)
}

// Null is the no-op predictor used for baseline runs.
type Null struct{}

// Name implements Prefetcher.
func (Null) Name() string { return "none" }

// OnAccess implements Prefetcher.
func (Null) OnAccess(_ trace.Ref, _ bool, _ *cache.EvictInfo, preds []Prediction) []Prediction {
	return preds
}

// PaperL1D returns the paper's L1 data cache configuration (Table 1):
// 64KB, 64-byte lines, 2-way, 2-cycle.
func PaperL1D() cache.Config {
	return cache.Config{Name: "L1D", Size: 64 * mem.KiB, BlockSize: 64, Assoc: 2, HitLatency: 2}
}

// PaperL2 returns the paper's unified L2 configuration (Table 1):
// 1MB, 8-way, 20-cycle.
func PaperL2() cache.Config {
	return cache.Config{Name: "L2", Size: mem.MiB, BlockSize: 64, Assoc: 8, HitLatency: 20}
}

// PaperL2Big returns the quadrupled L2 of the Table 3 comparison: 4MB,
// same latency ("conservatively assuming the same access latency").
func PaperL2Big() cache.Config {
	return cache.Config{Name: "L2-4MB", Size: 4 * mem.MiB, BlockSize: 64, Assoc: 8, HitLatency: 20}
}
