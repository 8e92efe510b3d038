package exp

import (
	"context"
	"errors"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"testing"

	"repro/internal/cachedir"
	"repro/internal/runner"
	"repro/internal/workload"
)

// liveHeap returns the bytes of heap the runtime marked live in a full
// collection.
func liveHeap() int64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return int64(s[0].Value.Uint64())
}

// TestSoakJobsKeepNoTraces drives cold jobs at distinct seeds through one
// shared scheduler with a cache dir, as ltexpd does, and requires the
// live heap to stay flat: a job's traces are freed when it ends (no other
// job holds them), so the shared scheduler grows by its result entries
// alone, far less per job than one trace's encoded bytes.
func TestSoakJobsKeepNoTraces(t *testing.T) {
	dir, err := OpenCache(t.TempDir(), cachedir.ReadWrite, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := runner.New(2)
	s.SetStore(dir)
	spec := JobSpec{Experiments: []string{"fig6left"}, Benchmarks: []string{"gcc"}, Cache: dir}
	job := func(seed uint64) {
		t.Helper()
		spec.Seed = seed
		res, err := RunJob(context.Background(), spec, s)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Executed == 0 {
			t.Fatalf("seed %d: cold job executed nothing", seed)
		}
	}
	job(1) // first-use allocations stay out of the measurement
	before := liveHeap()
	const jobs = 8
	for i := range jobs {
		job(uint64(2 + i))
	}
	perJob := (liveHeap() - before) / jobs
	runtime.KeepAlive(s) // a daemon's scheduler outlives every job

	p, _ := workload.ByName("gcc")
	m, err := MaterializedTrace(nil, p, workload.Small, 1)
	if err != nil {
		t.Fatal(err)
	}
	if limit := int64(m.Bytes() / 4); perJob >= limit {
		t.Errorf("live heap grew %d bytes per cold job, want < %d (a quarter of one %d-byte trace)",
			perJob, limit, m.Bytes())
	}
	t.Logf("live heap growth: %d bytes per job (trace %d bytes)", perJob, m.Bytes())
}

// TestTraceLeasesShareWhileHeld: jobs with leases open at the same time
// on one scheduler share a trace, it outlives the job that made it while
// another lease holds it, and it is generated again once the last lease
// holding it has ended.
func TestTraceLeasesShareWhileHeld(t *testing.T) {
	s := runner.New(1)
	p, _ := workload.ByName("gcc")
	mat := func(l *traceLease) {
		t.Helper()
		if _, err := (Options{Scale: workload.Small, traces: l}).materialized(p, 1); err != nil {
			t.Fatal(err)
		}
	}
	a, b := leaseTraces(s, nil), leaseTraces(s, nil)
	mat(a)
	mat(b)
	a.release()
	mat(b)
	if st := b.stats(); st.Submitted != 3 || st.Executed != 1 || st.Hits != 2 {
		t.Errorf("overlapping leases: %+v, want 3 submitted, 1 executed, 2 hits", st)
	}
	b.release()
	c := leaseTraces(s, nil)
	defer c.release()
	if c.memo == b.memo {
		t.Error("a memo outlived its last lease")
	}
	mat(c)
	if st := c.stats(); st.Executed != 1 {
		t.Errorf("after the last holder ended: %+v, want the trace generated again", st)
	}
}

// gateStore is a CacheStore that stores nothing. It counts the Gets of
// each key, and its first Get waits until release is closed.
type gateStore struct {
	blocked, release chan struct{}
	mu               sync.Mutex
	gets             map[string]int
}

func (g *gateStore) Get(key string) ([]byte, bool) {
	g.mu.Lock()
	g.gets[key]++
	first := len(g.gets) == 1 && g.gets[key] == 1
	g.mu.Unlock()
	if first {
		close(g.blocked)
		<-g.release
	}
	return nil, false
}

func (g *gateStore) Put(string, []byte) bool { return false }

// TestCancelledJobSharingCells runs two jobs at one seed on one shared
// scheduler and cancels job A while it owns the one result cell that job
// B awaits. The gate store holds A inside that cell until A is cancelled,
// so A's cell fails on its cancelled context before it has a trace, is
// un-published, and B runs it again as the owner, holding the trace
// under its own lease. B must finish with reports byte-identical to a
// solo run.
func TestCancelledJobSharingCells(t *testing.T) {
	spec := JobSpec{Experiments: []string{"fig6left"}, Benchmarks: []string{"gcc"}}
	render := func(res *JobResult) string {
		var sb strings.Builder
		if err := res.RenderText(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	solo, err := RunJob(context.Background(), spec, runner.New(2))
	if err != nil {
		t.Fatal(err)
	}

	g := &gateStore{blocked: make(chan struct{}), release: make(chan struct{}), gets: map[string]int{}}
	s := runner.New(2)
	s.SetStore(g)
	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	errA := make(chan error, 1)
	go func() {
		_, err := RunJob(ctxA, spec, s)
		errA <- err
	}()
	<-g.blocked // A owns the cell and waits in the gate
	resB := make(chan *JobResult, 1)
	errB := make(chan error, 1)
	go func() {
		res, err := RunJob(context.Background(), spec, s)
		resB <- res
		errB <- err
	}()
	for s.Stats().Hits == 0 { // B waits on A's cell
		runtime.Gosched()
	}
	cancelA()
	close(g.release)

	if err := <-errA; !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled job returned %v, want context.Canceled", err)
	}
	res, err := <-resB, <-errB
	if err != nil {
		t.Fatalf("surviving job: %v", err)
	}
	g.mu.Lock()
	for key, n := range g.gets {
		if n != 2 {
			t.Errorf("cell %s was started %d times, want 2 (A, then B as the new owner)", key, n)
		}
	}
	g.mu.Unlock()
	if got, want := render(res), render(solo); got != want {
		t.Errorf("surviving job's reports differ from a solo run\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
