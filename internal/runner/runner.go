// Package runner schedules experiment simulation cells across a worker
// pool and memoizes their results in a concurrency-safe cache.
//
// A cell is one independent unit of simulation work (for the experiments:
// one preset × scale × seed × cache-config × prefetcher combination)
// identified by a fingerprint key that captures every input affecting its
// result. Figures submit batches of cells through Map; the scheduler fans
// them out over Parallelism workers and returns results in submission
// order, so aggregation is an ordered reduction and reports are
// bit-identical at any parallelism. Cells that several figures share
// (the baseline timing runs, the correlation analyses, the oracle-DBCP
// coverage runs) are simulated exactly once per scheduler and served from
// the cache afterwards. The cell is the only unit of parallelism: a
// simulation inside a cell runs on one goroutine.
//
// Map admits each cell against one token budget of Parallelism, shared by
// every batch submitted to the scheduler, so the concurrent jobs of a
// daemon never run more cells at once than there are workers. A cell body
// may submit a nested cell through Do, which runs it inline on the
// calling worker without a token, but it must not call Map, All or All2
// on its own scheduler: the nested batch would wait for the token its own
// worker holds. Cell Run functions must be deterministic and
// self-contained: they build their own trace sources and predictors.
// Cached results are shared between all consumers of a key and must be
// treated as immutable.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Cell is one memoizable unit of simulation work.
type Cell struct {
	// Key fingerprints every input that affects the result. Two cells with
	// equal keys must compute identical values; the second is served from
	// the cache.
	Key string
	// Run computes the cell's value. It must be deterministic.
	Run func() (any, error)
	// Codec, when non-nil, makes the cell persistable: if the scheduler
	// has a CacheStore attached, a miss in the in-memory map consults the
	// store (Codec.Decode revives the value without running the cell) and
	// a computed value is encoded and written through. A nil Codec keeps
	// the cell memory-only. Decode failures — corrupt, truncated or
	// format-drifted entries — are never errors: the cell falls back to
	// recompute, and the fresh value is re-persisted over the bad entry.
	Codec Codec
}

// Codec encodes cell values for a persistent CacheStore. Encode and
// Decode must be exact inverses: a decoded value must be observationally
// identical to the computed one (warm-cache reports are required to be
// byte-identical to cold ones). Implementations may store large payloads
// out of band and return a small locator (the trace tier does: the
// encoded form of a materialized trace is the content digest of its
// store file).
type Codec interface {
	Encode(v any) ([]byte, error)
	Decode(data []byte) (any, error)
}

// CacheStore is a persistent, concurrency-safe byte store keyed by cell
// key, the L2 behind the scheduler's in-memory map. Implementations own
// content addressing (hashing the key with a code-version stamp),
// integrity checking and eviction — the scheduler only sees hit-or-miss;
// internal/cachedir is the on-disk implementation. Get returns the
// payload Put stored under the key, or false on any miss (absent,
// corrupt, evicted, read-only open failure). Put persists best-effort
// and reports whether the entry was written (false in read-only mode or
// on I/O errors — never an error: the cache is an accelerator, not a
// dependency).
type CacheStore interface {
	Get(key string) ([]byte, bool)
	Put(key string, data []byte) bool
}

// Stats counts cell traffic through a scheduler.
type Stats struct {
	// Submitted is the number of cells handed to Do or Map.
	Submitted uint64 `json:"submitted"`
	// Executed is the number of cells actually simulated: misses in both
	// the in-memory map and (for persistable cells with a store attached)
	// the persistent store. A warm-cache run proves itself by Executed
	// staying 0.
	Executed uint64 `json:"executed"`
	// Hits is the number of cells served from the in-memory cache,
	// including waits on a cell already in flight on another worker.
	Hits uint64 `json:"hits"`
	// DiskHits is the number of cells revived from the persistent store
	// instead of simulated (counted once per key per scheduler; later
	// submissions of the same key are in-memory Hits).
	DiskHits uint64 `json:"disk_hits,omitempty"`
	// Persisted is the number of computed cell results written through to
	// the persistent store.
	Persisted uint64 `json:"persisted,omitempty"`
}

// Sub returns the fieldwise difference s - before: the traffic between
// two snapshots of one scheduler's monotonic counters.
func (s Stats) Sub(before Stats) Stats {
	return Stats{
		Submitted: s.Submitted - before.Submitted,
		Executed:  s.Executed - before.Executed,
		Hits:      s.Hits - before.Hits,
		DiskHits:  s.DiskHits - before.DiskHits,
		Persisted: s.Persisted - before.Persisted,
	}
}

// Add returns the fieldwise sum of two counter sets, e.g. of two
// schedulers that served one job.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Submitted: s.Submitted + o.Submitted,
		Executed:  s.Executed + o.Executed,
		Hits:      s.Hits + o.Hits,
		DiskHits:  s.DiskHits + o.DiskHits,
		Persisted: s.Persisted + o.Persisted,
	}
}

// HitRate returns the fraction of submitted cells eliminated by either
// cache tier (in-memory or persistent).
func (s Stats) HitRate() float64 {
	if s.Submitted == 0 {
		return 0
	}
	return float64(s.Hits+s.DiskHits) / float64(s.Submitted)
}

type entry struct {
	done chan struct{} // closed when val/err are final
	val  any
	err  error
}

// cellError attributes a failure to the cell that produced it. Nested
// cells keep the innermost (root-cause) attribution: Do does not
// re-wrap an error that already carries one.
type cellError struct {
	key string
	err error
}

func (e *cellError) Error() string { return fmt.Sprintf("runner: cell %q: %v", e.key, e.err) }
func (e *cellError) Unwrap() error { return e.err }

// Scheduler executes cells across a worker pool with a shared result
// cache. A single Scheduler may be shared across many experiments (and
// goroutines); sharing is what enables the cross-figure cache.
type Scheduler struct {
	workers int
	store   CacheStore // optional persistent tier; nil = memory-only

	mu    sync.Mutex
	cells map[string]*entry
	stats Stats

	// Admission: Map holds one of avail tokens (capacity = workers) while
	// a cell runs, so batches submitted at once share one CPU budget.
	admitMu sync.Mutex
	admit   *sync.Cond
	avail   int
}

// New creates a scheduler. parallelism <= 0 selects GOMAXPROCS workers.
func New(parallelism int) *Scheduler {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	s := &Scheduler{workers: parallelism, cells: map[string]*entry{}, avail: parallelism}
	s.admit = sync.NewCond(&s.admitMu)
	return s
}

// acquire claims one admission token, blocking until one frees up. A
// context cancellation while waiting abandons the claim and returns the
// context's error — the admission queue is exactly where "queued but
// unstarted" cells park, so this is the seam that makes job cancellation
// prompt.
func (s *Scheduler) acquire(ctx context.Context) error {
	s.admitMu.Lock()
	if s.avail > 0 { // no wait, so nothing for the context to wake
		s.avail--
		s.admitMu.Unlock()
		return nil
	}
	s.admitMu.Unlock()
	// Wake our cond wait when the context fires; Broadcast is cheap and
	// spurious wakeups are already part of the cond contract.
	stop := context.AfterFunc(ctx, func() { s.admit.Broadcast() })
	defer stop()
	s.admitMu.Lock()
	for s.avail == 0 {
		if err := ctx.Err(); err != nil {
			s.admitMu.Unlock()
			return err
		}
		s.admit.Wait()
	}
	s.avail--
	s.admitMu.Unlock()
	return nil
}

// release returns the token claimed by acquire.
func (s *Scheduler) release() {
	s.admitMu.Lock()
	s.avail++
	s.admitMu.Unlock()
	s.admit.Broadcast()
}

// Parallelism returns the worker count.
func (s *Scheduler) Parallelism() int { return s.workers }

// SetStore attaches a persistent cache tier: the in-memory cell map
// becomes a write-through L1 over it. Cells opt in per-cell by carrying
// a Codec. Attach the store before submitting work; a nil store detaches
// the tier.
func (s *Scheduler) SetStore(cs CacheStore) { s.store = cs }

// Stats returns a snapshot of the cell counters.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Do executes one cell in the calling goroutine, memoized by key: the
// first submission of a key runs it, every later submission (and any
// concurrent duplicate) waits for and shares that result. Errors are
// cached like values — a deterministic cell fails the same way every time.
//
// With a CacheStore attached and a persistable cell (Codec non-nil), the
// in-memory map acts as a write-through L1: an in-memory miss first
// consults the store (reviving the value counts as a DiskHit, not an
// execution), and a freshly computed value is encoded and persisted.
// Errors are memoized in memory only — they are never written to disk,
// so a transient failure doesn't poison later runs.
//
// A cell whose context is done before its Run starts is abandoned with
// the context's error instead of simulated. Cancellation never poisons
// the cache: an abandoned cell, like one whose body failed with a
// context error (a nested Do on its cancelled job's context), is
// un-published from the memo map, so a later submission of the same key
// (from another job sharing the scheduler, or a retry) recomputes it.
// A waiter whose own context fires stops waiting immediately even though
// the in-flight computation (owned by someone else) runs to completion
// and stays cached. A cell already executing when its context fires is
// not interrupted: cells are CPU-bound and run to completion; promptness
// comes from the queued-but-unstarted cells, which are the bulk of a
// batch.
func (s *Scheduler) Do(ctx context.Context, c Cell) (any, error) {
	if c.Key == "" {
		return nil, fmt.Errorf("runner: cell with empty key")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.stats.Submitted++
	if e, ok := s.cells[c.Key]; ok {
		s.stats.Hits++
		s.mu.Unlock()
		select {
		case <-e.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if isCanceled(e.err) && ctx.Err() == nil && s.unpublished(c.Key, e) {
			// The owner's job was cancelled and the entry is gone from the
			// map. Our context is still live, so resubmit: we either find a
			// fresh in-flight entry or become the new owner.
			return s.Do(ctx, c)
		}
		return e.val, e.err
	}
	e := &entry{done: make(chan struct{})}
	s.cells[c.Key] = e
	s.mu.Unlock()
	if err := ctx.Err(); err != nil {
		// Cancelled between submission and start: un-publish so the key
		// stays computable, and fail only the waiters (they recheck their
		// own contexts above).
		s.Forget(c.Key)
		e.err = err
		close(e.done)
		return nil, err
	}
	if v, ok := s.restore(c); ok {
		e.val = v
		s.count(func(st *Stats) { st.DiskHits++ })
	} else {
		s.count(func(st *Stats) { st.Executed++ })
		e.val, e.err = s.runCell(c)
		var ce *cellError
		if e.err != nil && !errors.As(e.err, &ce) {
			e.err = &cellError{key: c.Key, err: e.err}
		}
		var pe *PanicError
		if errors.As(e.err, &pe) || isCanceled(e.err) {
			// Neither a panic (a bug) nor a cancellation is a deterministic
			// result: un-publish so it is never memoized. Current waiters
			// see the error once (a live waiter retries a cancellation); a
			// later submission of the key recomputes.
			s.Forget(c.Key)
		}
		if e.err == nil && s.persist(c, e.val) {
			s.count(func(st *Stats) { st.Persisted++ })
		}
	}
	close(e.done)
	return e.val, e.err
}

// Forget removes key's entry from the memo map, so its value can be
// collected; a later submission of key computes it again (or revives it
// from the store). A cell in flight under key still completes for the
// submissions already waiting on it.
func (s *Scheduler) Forget(key string) {
	s.mu.Lock()
	delete(s.cells, key)
	s.mu.Unlock()
}

// unpublished reports whether e is no longer key's entry in the memo
// map, so a waiter that retries cannot spin on an entry that stays.
func (s *Scheduler) unpublished(key string, e *entry) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cells[key] != e
}

// PanicError carries a recovered cell panic: the panic value and the
// goroutine stack captured at recovery time. The scheduler converts cell
// panics into this error so a broken cell fails its own job — with the
// stack preserved for the log — instead of killing the process; cells
// run on workers shared by every job in a daemon.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("cell panicked: %v\n%s", e.Value, e.Stack)
}

// runCell executes a cell body, recovering panics into a *PanicError.
func (s *Scheduler) runCell(c Cell) (v any, err error) {
	defer func() {
		if r := recover(); r != nil {
			v = nil
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return c.Run()
}

// isCanceled reports whether err is a context cancellation (direct or
// deadline), as opposed to a real cell failure.
func isCanceled(err error) bool {
	return err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
}

// count applies one stats mutation under the scheduler lock.
func (s *Scheduler) count(f func(*Stats)) {
	s.mu.Lock()
	f(&s.stats)
	s.mu.Unlock()
}

// restore tries to revive a persistable cell's value from the store. Any
// failure — no store, memory-only cell, absent entry, undecodable
// payload — is a miss: the caller recomputes (and re-persists, repairing
// a corrupt entry in place).
func (s *Scheduler) restore(c Cell) (any, bool) {
	if s.store == nil || c.Codec == nil {
		return nil, false
	}
	data, ok := s.store.Get(c.Key)
	if !ok {
		return nil, false
	}
	v, err := c.Codec.Decode(data)
	if err != nil {
		return nil, false
	}
	return v, true
}

// persist writes a computed value through to the store, best-effort.
func (s *Scheduler) persist(c Cell, v any) bool {
	if s.store == nil || c.Codec == nil {
		return false
	}
	data, err := c.Codec.Encode(v)
	if err != nil {
		return false
	}
	return s.store.Put(c.Key, data)
}

// Map executes a batch of cells across the worker pool and returns their
// values in submission order (the ordered reduction that keeps reports
// deterministic). Each cell holds one of the scheduler's admission tokens
// while it runs, so batches submitted at once never run more than
// Parallelism cells together. The first failing cell — first in
// submission order among those that ran — aborts the batch: workers stop
// claiming new cells and its error is returned. Cells already in flight
// run to completion and stay cached.
//
// When ctx fires, workers stop claiming queued cells (and abandon
// admission waits) immediately; cells already executing run to
// completion and stay cached. The batch then fails with the context's
// error unless an earlier cell error takes precedence.
func (s *Scheduler) Map(ctx context.Context, cells []Cell) ([]any, error) {
	out := make([]any, len(cells))
	errs := make([]error, len(cells))
	workers := min(s.workers, len(cells))
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(cells) || failed.Load() || ctx.Err() != nil {
					return
				}
				if err := s.acquire(ctx); err != nil {
					errs[i] = err
					return
				}
				out[i], errs[i] = s.Do(ctx, cells[i])
				s.release()
				if errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil && !isCanceled(err) {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Task is a Cell with a typed result.
type Task[T any] struct {
	Key string
	Run func() (T, error)
	// Codec makes the task persistable in an attached CacheStore (see
	// Cell.Codec); the decoded value must assert back to T.
	Codec Codec
}

// erase wraps typed tasks as Cells.
func erase[T any](tasks []Task[T], cells []Cell) []Cell {
	for _, t := range tasks {
		run := t.Run
		cells = append(cells, Cell{Key: t.Key, Run: func() (any, error) { return run() }, Codec: t.Codec})
	}
	return cells
}

// assert converts a Map result slice back to T.
func assert[T any](tasks []Task[T], vals []any) ([]T, error) {
	out := make([]T, len(vals))
	for i, v := range vals {
		tv, ok := v.(T)
		if !ok {
			// A key collision between cells of different result types.
			return nil, fmt.Errorf("runner: cell %q cached a %T, want %T", tasks[i].Key, v, out[i])
		}
		out[i] = tv
	}
	return out, nil
}

// All executes typed tasks through the scheduler's Map and returns the
// results in submission order.
func All[T any](ctx context.Context, s *Scheduler, tasks []Task[T]) ([]T, error) {
	vals, err := s.Map(ctx, erase(tasks, make([]Cell, 0, len(tasks))))
	if err != nil {
		return nil, err
	}
	return assert(tasks, vals)
}

// All2 executes two independently typed task batches in a single
// worker-pool pass — no barrier between the batches, so workers drain
// both without idling on the slowest cell of the first.
func All2[A, B any](ctx context.Context, s *Scheduler, as []Task[A], bs []Task[B]) ([]A, []B, error) {
	cells := erase(bs, erase(as, make([]Cell, 0, len(as)+len(bs))))
	vals, err := s.Map(ctx, cells)
	if err != nil {
		return nil, nil, err
	}
	outA, err := assert(as, vals[:len(as)])
	if err != nil {
		return nil, nil, err
	}
	outB, err := assert(bs, vals[len(as):])
	if err != nil {
		return nil, nil, err
	}
	return outA, outB, nil
}
