package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"sync"
	"time"

	"repro/internal/cachedir"
	"repro/internal/exp"
	"repro/internal/runner"
)

// JobState is a job's lifecycle position. Transitions are strictly
// forward: queued → running → one of done/failed/cancelled, or
// queued → cancelled directly when a job is cancelled before a run slot
// frees up.
type JobState string

const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobDone      JobState = "done"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCancelled
}

// Job is one submitted experiment job. Mutable fields are guarded by mu;
// the accessors return consistent snapshots.
type Job struct {
	ID   string
	Spec exp.JobSpec // normalized at submission

	mu       sync.Mutex
	state    JobState
	created  time.Time
	started  time.Time
	finished time.Time
	err      string
	result   *exp.JobResult
	progress []string
	cancel   context.CancelFunc
	// changed is closed and replaced on every state or progress change,
	// so an event stream waits on it instead of holding a buffer of its
	// own: each stream reads state and progress from the job itself.
	changed chan struct{}

	// statsBefore snapshots the shared scheduler's counters when the job
	// starts running, so live status can report the job-scoped delta.
	statsBefore runner.Stats
}

// JobStatus is the wire snapshot of a job (GET /v1/jobs/{id} and the
// listing).
type JobStatus struct {
	ID       string      `json:"id"`
	State    JobState    `json:"state"`
	Spec     exp.JobSpec `json:"spec"`
	Created  time.Time   `json:"created"`
	Started  *time.Time  `json:"started,omitempty"`
	Finished *time.Time  `json:"finished,omitempty"`
	Error    string      `json:"error,omitempty"`
	// Cells carries the job-scoped scheduler counter delta: final for
	// terminal jobs, a live in-flight snapshot for running ones (on a
	// shared scheduler concurrent jobs' cells land in the same counters,
	// so the live view is an upper bound, exact once the job finishes).
	Cells *runner.Stats `json:"cells,omitempty"`
	// Cache carries the job's persistent-cache counter delta (terminal
	// jobs only; nil when the daemon runs without -cache-dir).
	Cache *cachedir.Counters `json:"cache,omitempty"`
}

// ErrDraining is returned by Submit once Drain has begun; the HTTP
// layer maps it to 503 so load balancers retry elsewhere.
var ErrDraining = errors.New("server: draining, not accepting jobs")

// runFunc executes a job; the default is exp.RunJob. Tests substitute a
// controllable implementation to drive lifecycle and cancellation
// deterministically.
type runFunc func(ctx context.Context, spec exp.JobSpec, sched *runner.Scheduler) (*exp.JobResult, error)

// Manager owns the job table and the run slots. All jobs execute
// against one shared scheduler (the cross-job cell dedup that makes a
// sweep-heavy daemon cheap); MaxActive bounds how many jobs occupy run
// slots at once, with the scheduler's weighted admission arbitrating
// actual CPU inside that.
type Manager struct {
	sched   *runner.Scheduler
	cache   *cachedir.Dir
	run     runFunc
	slots   chan struct{}
	baseCtx context.Context
	stop    context.CancelFunc
	maxJobs int // retained job records (terminal jobs beyond this are pruned oldest-first)
	mu      sync.Mutex
	jobs    map[string]*Job
	order   []string
	wg      sync.WaitGroup
}

// NewManager builds a job manager over the shared scheduler and
// (optional) persistent cache. maxActive is the number of jobs allowed
// to run concurrently (min 1).
func NewManager(sched *runner.Scheduler, cache *cachedir.Dir, maxActive int) *Manager {
	if maxActive < 1 {
		maxActive = 1
	}
	ctx, stop := context.WithCancel(context.Background())
	return &Manager{
		sched:   sched,
		cache:   cache,
		run:     exp.RunJob,
		slots:   make(chan struct{}, maxActive),
		baseCtx: ctx,
		stop:    stop,
		maxJobs: 1024,
		jobs:    map[string]*Job{},
	}
}

// newJobID returns a fresh random job id.
func newJobID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // crypto/rand never fails on supported platforms
	}
	return "j" + hex.EncodeToString(b[:])
}

// Submit validates and enqueues a job, returning it in the queued state.
// The spec is normalized here so a malformed submission fails
// synchronously (the handler turns the error into a 400) instead of as
// a failed job.
func (m *Manager) Submit(spec exp.JobSpec) (*Job, error) {
	spec.Cache = m.cache
	norm, err := spec.Normalize()
	if err != nil {
		return nil, err
	}
	if err := m.baseCtx.Err(); err != nil {
		return nil, ErrDraining
	}
	j := &Job{
		ID:      newJobID(),
		Spec:    norm,
		state:   JobQueued,
		created: time.Now(),
		changed: make(chan struct{}),
	}
	ctx, cancel := context.WithCancel(m.baseCtx)
	j.cancel = cancel
	m.mu.Lock()
	m.jobs[j.ID] = j
	m.order = append(m.order, j.ID)
	m.pruneLocked()
	m.mu.Unlock()
	m.wg.Add(1)
	go m.execute(ctx, j)
	return j, nil
}

// execute drives one job through its lifecycle on its own goroutine.
func (m *Manager) execute(ctx context.Context, j *Job) {
	defer m.wg.Done()
	defer j.cancel()
	// Wait for a run slot; cancellation while queued resolves the job
	// without ever touching the scheduler.
	select {
	case m.slots <- struct{}{}:
		defer func() { <-m.slots }()
	case <-ctx.Done():
		j.finish(nil, ctx.Err())
		return
	}
	if ctx.Err() != nil {
		j.finish(nil, ctx.Err())
		return
	}
	j.setRunning(m.sched.Stats())
	spec := j.Spec
	spec.Progress = (*progressWriter)(j)
	res, err := m.run(ctx, spec, m.sched)
	j.finish(res, err)
}

// Get returns a job by id.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Jobs returns all retained jobs, oldest first.
func (m *Manager) Jobs() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, 0, len(m.order))
	for _, id := range m.order {
		if j, ok := m.jobs[id]; ok {
			out = append(out, j)
		}
	}
	return out
}

// Cancel requests cancellation of a job: a queued job resolves to
// cancelled without running, a running job's context aborts its queued
// cells promptly (cells already simulating finish and stay cached). It
// reports whether the job exists; cancelling a terminal job is a no-op.
func (m *Manager) Cancel(id string) (*Job, bool) {
	j, ok := m.Get(id)
	if !ok {
		return nil, false
	}
	j.cancel()
	return j, true
}

// Drain stops accepting submissions, cancels every live job and waits
// for their goroutines to resolve (bounded by ctx).
func (m *Manager) Drain(ctx context.Context) error {
	m.stop() // cancels baseCtx, which every job context descends from
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// CountByState tallies retained jobs per state (the /v1/stats view).
func (m *Manager) CountByState() map[JobState]int {
	out := map[JobState]int{}
	for _, j := range m.Jobs() {
		out[j.State()]++
	}
	return out
}

// pruneLocked drops the oldest terminal job records beyond the
// retention bound so a long-lived daemon's job table stays flat.
// Non-terminal jobs are never pruned.
func (m *Manager) pruneLocked() {
	excess := len(m.order) - m.maxJobs
	if excess <= 0 {
		return
	}
	kept := m.order[:0]
	for i, id := range m.order {
		if excess == 0 { // the rest stays: no need to look it up
			kept = append(kept, m.order[i:]...)
			break
		}
		if j := m.jobs[id]; j != nil && j.State().Terminal() {
			delete(m.jobs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	m.order = kept
}

// State returns the job's current lifecycle state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Result returns the completed result (nil unless state is done).
func (j *Job) Result() *exp.JobResult {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

// Status snapshots the job for the wire. sched supplies the live
// counter view for running jobs.
func (j *Job) Status(sched *runner.Scheduler) JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:      j.ID,
		State:   j.state,
		Spec:    j.Spec,
		Created: j.created,
		Error:   j.err,
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	switch {
	case j.result != nil:
		cells := j.result.Stats
		st.Cells = &cells
		st.Cache = j.result.Cache
	case j.state == JobRunning && sched != nil:
		// Result cells only: the job's trace memo joins its counts when
		// the job finishes.
		live := sched.Stats().Sub(j.statsBefore)
		st.Cells = &live
	}
	return st
}

// setRunning transitions queued → running.
func (j *Job) setRunning(before runner.Stats) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = JobRunning
	j.started = time.Now()
	j.statsBefore = before
	j.notifyLocked()
}

// finish resolves the job from res/err and wakes its event streams.
func (j *Job) finish(res *exp.JobResult, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.finished = time.Now()
	switch {
	case err == nil:
		j.state = JobDone
		j.result = res
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		j.state = JobCancelled
		j.err = "cancelled"
	default:
		j.state = JobFailed
		j.err = err.Error()
	}
	j.notifyLocked()
}

// notifyLocked wakes every event stream waiting on the job. j.mu must be
// held.
func (j *Job) notifyLocked() {
	close(j.changed)
	j.changed = make(chan struct{})
}

// events returns the job's state, its progress lines from index from on,
// and a channel that is closed at the job's next change.
func (j *Job) events(from int) (JobState, []string, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.progress[from:], j.changed
}

// progressWriter records progress lines on the job: the io.Writer
// contract of exp.Options.Progress, where each Write is one
// (newline-terminated) progress line from the experiment harness.
type progressWriter Job

func (w *progressWriter) Write(p []byte) (int, error) {
	line := string(p)
	for len(line) > 0 && (line[len(line)-1] == '\n' || line[len(line)-1] == '\r') {
		line = line[:len(line)-1]
	}
	if line != "" {
		j := (*Job)(w)
		j.mu.Lock()
		j.progress = append(j.progress, line)
		j.notifyLocked()
		j.mu.Unlock()
	}
	return len(p), nil
}
