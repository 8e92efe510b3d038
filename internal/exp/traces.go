package exp

import (
	"sync"

	"repro/internal/cachedir"
	"repro/internal/runner"
)

// traceMemo is the trace memo of the jobs running at the same time on one
// scheduler and cache: a private scheduler that runs only "mat" cells,
// and for each trace in it the number of those jobs that hold it. A job
// holds every trace it asks for until it ends (traceLease); the last
// holder to end makes the memo forget the trace. So the shared scheduler
// keeps results, not traces, and jobs that overlap in time (a queue of
// sweeps on ltexpd, which runs -max-jobs of them at once) still generate
// each shared trace once. A trace reaches a job that starts after its
// last holder ended only through the cache's traces tier.
type traceMemo struct {
	key  memoKey
	s    *runner.Scheduler
	jobs int            // open leases
	refs map[string]int // "mat" cell key → leases holding it
}

// memoKey names the jobs that share a memo: their scheduler and cache.
type memoKey struct {
	sched *runner.Scheduler
	cache *cachedir.Dir
}

// memos holds the memo of every scheduler and cache with a lease open.
// memosMu guards it, every memo's jobs and refs, and every lease's held.
var (
	memosMu sync.Mutex
	memos   = map[memoKey]*traceMemo{}
)

// traceLease is one job's hold on its trace memo.
type traceLease struct {
	memo *traceMemo
	held map[string]bool
}

// leaseTraces opens a job's lease on the trace memo of sched and cache
// (either may be nil), making the memo if no lease is open on it. The
// memo's scheduler reads and writes the cache's traces tier. The job
// ends the lease with release once none of its cells can run any more.
func leaseTraces(sched *runner.Scheduler, cache *cachedir.Dir) *traceLease {
	memosMu.Lock()
	defer memosMu.Unlock()
	k := memoKey{sched, cache}
	m := memos[k]
	if m == nil {
		m = &traceMemo{key: k, s: runner.New(1), refs: map[string]int{}}
		if cache != nil {
			m.s.SetStore(cache)
		}
		memos[k] = m
	}
	m.jobs++
	return &traceLease{memo: m, held: map[string]bool{}}
}

// do resolves a "mat" cell through the memo, holding its trace for the
// rest of the job first, so no other lease's release can drop it.
func (l *traceLease) do(o Options, c runner.Cell) (any, error) {
	memosMu.Lock()
	if !l.held[c.Key] {
		l.held[c.Key] = true
		l.memo.refs[c.Key]++
	}
	memosMu.Unlock()
	return l.memo.s.Do(o.ctx(), c)
}

// stats returns the memo's cell counters. Jobs that share the memo count
// into the same counters, as they do on their shared scheduler.
func (l *traceLease) stats() runner.Stats { return l.memo.s.Stats() }

// release ends the lease: the memo forgets every trace that no other
// open lease holds, and goes itself with its last lease.
func (l *traceLease) release() {
	memosMu.Lock()
	defer memosMu.Unlock()
	m := l.memo
	for key := range l.held {
		if m.refs[key]--; m.refs[key] == 0 {
			delete(m.refs, key)
			m.s.Forget(key)
		}
	}
	if m.jobs--; m.jobs == 0 {
		delete(memos, m.key)
	}
}
