package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cachedir"
	"repro/internal/exp"
	"repro/internal/runner"
)

// newTestServer builds a server over a fresh scheduler with the job
// runner stubbed out, so lifecycle tests are deterministic and free.
func newTestServer(t *testing.T, run runFunc, cfg Config) *Server {
	t.Helper()
	if cfg.Sched == nil {
		cfg.Sched = runner.New(2)
	}
	cfg.Logger = discard
	s := New(cfg)
	if run != nil {
		s.mgr.run = run
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	return s
}

func doJSON(t *testing.T, h http.Handler, method, path string, body any, out any) *httptest.ResponseRecorder {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if out != nil && rec.Code < 300 {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: bad JSON %q: %v", method, path, rec.Body.String(), err)
		}
	}
	return rec
}

// waitState polls until the job reaches want (or fails the test). The
// deadline is generous because the integration test runs a real
// simulation, which the race detector slows by an order of magnitude.
func waitState(t *testing.T, s *Server, id string, want JobState) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Minute)
	for time.Now().Before(deadline) {
		j, ok := s.mgr.Get(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		if j.State() == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	j, _ := s.mgr.Get(id)
	t.Fatalf("job %s stuck in %s, want %s", id, j.State(), want)
}

func TestJobLifecycleDone(t *testing.T) {
	release := make(chan struct{})
	run := func(ctx context.Context, spec exp.JobSpec, sched *runner.Scheduler) (*exp.JobResult, error) {
		fmt.Fprintln(spec.Progress, "fig11: running")
		<-release
		return &exp.JobResult{Spec: spec, Parallelism: sched.Parallelism()}, nil
	}
	s := newTestServer(t, run, Config{})
	var st JobStatus
	rec := doJSON(t, s.Handler(), "POST", "/v1/jobs", exp.JobSpec{Experiments: []string{"fig11"}}, &st)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", rec.Code, rec.Body.String())
	}
	if st.ID == "" || (st.State != JobQueued && st.State != JobRunning) {
		t.Fatalf("submit status = %+v", st)
	}
	waitState(t, s, st.ID, JobRunning)
	// Report is not available yet.
	if rec := doJSON(t, s.Handler(), "GET", "/v1/jobs/"+st.ID+"/report", nil, nil); rec.Code != http.StatusConflict {
		t.Fatalf("report while running: %d", rec.Code)
	}
	close(release)
	waitState(t, s, st.ID, JobDone)
	var got JobStatus
	if rec := doJSON(t, s.Handler(), "GET", "/v1/jobs/"+st.ID, nil, &got); rec.Code != http.StatusOK {
		t.Fatalf("status: %d", rec.Code)
	}
	if got.State != JobDone || got.Started == nil || got.Finished == nil || got.Error != "" {
		t.Fatalf("done status = %+v", got)
	}
	// The normalized spec round-tripped ("fig11" stays, defaults filled).
	if len(got.Spec.Experiments) != 1 || got.Spec.Experiments[0] != "fig11" || got.Spec.Scale != "small" || got.Spec.Seed != 1 {
		t.Fatalf("normalized spec = %+v", got.Spec)
	}
	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	doJSON(t, s.Handler(), "GET", "/v1/jobs", nil, &list)
	if len(list.Jobs) != 1 || list.Jobs[0].ID != st.ID {
		t.Fatalf("list = %+v", list)
	}
}

func TestJobFailed(t *testing.T) {
	run := func(ctx context.Context, spec exp.JobSpec, sched *runner.Scheduler) (*exp.JobResult, error) {
		return nil, errors.New("boom")
	}
	s := newTestServer(t, run, Config{})
	var st JobStatus
	doJSON(t, s.Handler(), "POST", "/v1/jobs", exp.JobSpec{Experiments: []string{"fig11"}}, &st)
	waitState(t, s, st.ID, JobFailed)
	var got JobStatus
	doJSON(t, s.Handler(), "GET", "/v1/jobs/"+st.ID, nil, &got)
	if got.Error != "boom" {
		t.Fatalf("error = %q", got.Error)
	}
}

func TestSubmitValidation(t *testing.T) {
	s := newTestServer(t, nil, Config{})
	for _, body := range []string{
		`{"experiments":["not-an-experiment"]}`,
		`{"scale":"galactic"}`,
		`{"benchmarks":["not-a-benchmark"]}`,
		`{"unknown_field":1}`,
		`{garbage`,
	} {
		req := httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(body))
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("submit %s: %d, want 400", body, rec.Code)
		}
	}
	if rec := doJSON(t, s.Handler(), "GET", "/v1/jobs/jdeadbeef", nil, nil); rec.Code != http.StatusNotFound {
		t.Errorf("unknown job: %d, want 404", rec.Code)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	block := make(chan struct{})
	run := func(ctx context.Context, spec exp.JobSpec, sched *runner.Scheduler) (*exp.JobResult, error) {
		<-block
		return &exp.JobResult{Spec: spec}, nil
	}
	s := newTestServer(t, run, Config{MaxActiveJobs: 1})
	defer close(block)
	var first, second JobStatus
	doJSON(t, s.Handler(), "POST", "/v1/jobs", exp.JobSpec{Experiments: []string{"fig11"}}, &first)
	waitState(t, s, first.ID, JobRunning)
	doJSON(t, s.Handler(), "POST", "/v1/jobs", exp.JobSpec{Experiments: []string{"fig11"}}, &second)
	// The second job is stuck behind the single run slot; cancelling it
	// must resolve it without running.
	var cancelled JobStatus
	if rec := doJSON(t, s.Handler(), "DELETE", "/v1/jobs/"+second.ID, nil, &cancelled); rec.Code != http.StatusAccepted {
		t.Fatalf("cancel: %d", rec.Code)
	}
	waitState(t, s, second.ID, JobCancelled)
	if j, _ := s.mgr.Get(first.ID); j.State() != JobRunning {
		t.Fatalf("cancelling the queued job disturbed the running one: %s", j.State())
	}
	// Cancelling again is idempotent.
	if rec := doJSON(t, s.Handler(), "DELETE", "/v1/jobs/"+second.ID, nil, nil); rec.Code != http.StatusAccepted {
		t.Fatalf("re-cancel: %d", rec.Code)
	}
}

// TestCancelRunningJobStopsQueuedCells pins the cancellation contract
// end to end: DELETE /v1/jobs/{id} on a running job cancels its context,
// which aborts the job's queued-but-unstarted scheduler cells while the
// in-flight cells finish — and the shared scheduler stays healthy for
// later jobs. An in-flight cell that completes stays cached; one whose
// body makes a nested submission on the cancelled job context fails with
// that cancellation and must recompute on the next submission, as a
// DELETE-then-resubmit does. Run under -race in CI.
func TestCancelRunningJobStopsQueuedCells(t *testing.T) {
	sched := runner.New(2) // two workers: cells 0 and 1 in flight, the rest queued
	var started sync.WaitGroup
	started.Add(2)
	release := make(chan struct{})
	var ran atomic.Int64
	run := func(ctx context.Context, spec exp.JobSpec, s *runner.Scheduler) (*exp.JobResult, error) {
		cells := make([]runner.Cell, 64)
		cells[0] = runner.Cell{Key: "c0", Run: func() (any, error) {
			started.Done()
			<-release
			ran.Add(1)
			return 0, nil
		}}
		cells[1] = runner.Cell{Key: "c1", Run: func() (any, error) {
			started.Done()
			<-release
			ran.Add(1)
			return s.Do(ctx, runner.Cell{Key: "c1-inner", Run: func() (any, error) { return 1, nil }})
		}}
		for i := 2; i < len(cells); i++ {
			i := i
			cells[i] = runner.Cell{Key: fmt.Sprintf("c%d", i), Run: func() (any, error) {
				ran.Add(1)
				return i, nil
			}}
		}
		if _, err := s.Map(ctx, cells); err != nil {
			return nil, err
		}
		return &exp.JobResult{Spec: spec}, nil
	}
	s := newTestServer(t, run, Config{Sched: sched})
	var st JobStatus
	doJSON(t, s.Handler(), "POST", "/v1/jobs", exp.JobSpec{Experiments: []string{"fig11"}}, &st)
	started.Wait() // cells 0 and 1 are executing, 62 cells are queued
	if rec := doJSON(t, s.Handler(), "DELETE", "/v1/jobs/"+st.ID, nil, nil); rec.Code != http.StatusAccepted {
		t.Fatalf("cancel: %d", rec.Code)
	}
	close(release)
	waitState(t, s, st.ID, JobCancelled)
	if got := ran.Load(); got != 2 {
		t.Fatalf("%d cells ran after DELETE, want 2 (the in-flight ones)", got)
	}
	// The scheduler survives for the next job: the finished cell is
	// cached, the cancelled and abandoned cells recompute cleanly.
	vals, err := sched.Map(context.Background(), []runner.Cell{
		{Key: "c0", Run: func() (any, error) { t.Error("cached cell recomputed"); return 0, nil }},
		{Key: "c1", Run: func() (any, error) { return 1, nil }},
		{Key: "c2", Run: func() (any, error) { return 2, nil }},
	})
	if err != nil || vals[0].(int) != 0 || vals[1].(int) != 1 || vals[2].(int) != 2 {
		t.Fatalf("post-cancel scheduler: %v %v", vals, err)
	}
}

func TestEventsStream(t *testing.T) {
	release := make(chan struct{})
	run := func(ctx context.Context, spec exp.JobSpec, sched *runner.Scheduler) (*exp.JobResult, error) {
		fmt.Fprintln(spec.Progress, "step one")
		<-release
		return &exp.JobResult{Spec: spec}, nil
	}
	s := newTestServer(t, run, Config{})
	var st JobStatus
	doJSON(t, s.Handler(), "POST", "/v1/jobs", exp.JobSpec{Experiments: []string{"fig11"}}, &st)
	waitState(t, s, st.ID, JobRunning)
	close(release)
	waitState(t, s, st.ID, JobDone)
	// Subscribing to a terminal job replays state + progress + done and
	// closes the stream, so the SSE handler terminates.
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/v1/jobs/"+st.ID+"/events", nil)
	s.Handler().ServeHTTP(rec, req)
	body := rec.Body.String()
	if ct := rec.Header().Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	for _, want := range []string{"event: state\ndata: done\n", "event: progress\ndata: step one\n", "event: done\ndata: done\n"} {
		if !strings.Contains(body, want) {
			t.Errorf("stream missing %q:\n%s", want, body)
		}
	}
}

// TestEventsStreamLaggingClient pins lossless streaming: a client that
// stops reading while the job prints far more progress lines than any
// socket buffers still receives every line, in order, and the final done.
func TestEventsStreamLaggingClient(t *testing.T) {
	const lines = 20000
	release := make(chan struct{})
	run := func(ctx context.Context, spec exp.JobSpec, sched *runner.Scheduler) (*exp.JobResult, error) {
		<-release
		for i := 0; i < lines; i++ {
			fmt.Fprintf(spec.Progress, "line %d\n", i)
		}
		return &exp.JobResult{Spec: spec}, nil
	}
	s := newTestServer(t, run, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	var st JobStatus
	doJSON(t, s.Handler(), "POST", "/v1/jobs", exp.JobSpec{Experiments: []string{"fig11"}}, &st)
	waitState(t, s, st.ID, JobRunning)
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	rd := bufio.NewReader(resp.Body)
	if first, err := rd.ReadString('\n'); err != nil || first != "event: state\n" {
		t.Fatalf("first line %q, %v", first, err)
	}
	// The stream is attached; the job now prints every line before the
	// client reads another byte.
	close(release)
	waitState(t, s, st.ID, JobDone)
	rest, err := io.ReadAll(rd)
	if err != nil {
		t.Fatal(err)
	}
	body := string(rest)
	next := 0
	for _, ev := range strings.Split(body, "\n\n") {
		if data, ok := strings.CutPrefix(ev, "event: progress\ndata: "); ok {
			if want := fmt.Sprintf("line %d", next); data != want {
				t.Fatalf("progress event %d is %q, want %q", next, data, want)
			}
			next++
		}
	}
	if next != lines {
		t.Fatalf("stream carried %d progress events, want %d", next, lines)
	}
	if !strings.HasSuffix(body, "event: state\ndata: done\n\nevent: done\ndata: done\n\n") {
		t.Fatalf("stream does not end with state and done events: ...%q", body[max(0, len(body)-120):])
	}
}

func TestAuthAndHealthEndpoints(t *testing.T) {
	s := newTestServer(t, nil, Config{APIKeys: []string{"sekrit"}})
	h := s.Handler()
	// /v1 is locked.
	if rec := doJSON(t, h, "GET", "/v1/jobs", nil, nil); rec.Code != http.StatusUnauthorized {
		t.Fatalf("unauthenticated /v1: %d", rec.Code)
	}
	for _, set := range []func(*http.Request){
		func(r *http.Request) { r.Header.Set("X-API-Key", "sekrit") },
		func(r *http.Request) { r.Header.Set("Authorization", "Bearer sekrit") },
	} {
		req := httptest.NewRequest("GET", "/v1/jobs", nil)
		set(req)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("authenticated /v1: %d", rec.Code)
		}
	}
	req := httptest.NewRequest("GET", "/v1/jobs", nil)
	req.Header.Set("X-API-Key", "wrong")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusUnauthorized {
		t.Fatalf("wrong key: %d", rec.Code)
	}
	// Probes stay open.
	var health struct {
		Status       string `json:"status"`
		Version      string `json:"version"`
		Commit       string `json:"commit"`
		CacheVersion string `json:"cache_version"`
	}
	if rec := doJSON(t, h, "GET", "/healthz", nil, &health); rec.Code != http.StatusOK {
		t.Fatalf("healthz: %d", rec.Code)
	}
	if health.Status != "ok" || health.Version == "" || health.Commit == "" || health.CacheVersion == "" {
		t.Fatalf("healthz = %+v", health)
	}
	if rec := doJSON(t, h, "GET", "/readyz", nil, nil); rec.Code != http.StatusOK {
		t.Fatalf("readyz: %d", rec.Code)
	}
}

func TestRateLimit(t *testing.T) {
	s := newTestServer(t, nil, Config{RatePerSec: 1, Burst: 2})
	h := s.Handler()
	codes := make([]int, 4)
	for i := range codes {
		codes[i] = doJSON(t, h, "GET", "/v1/stats", nil, nil).Code
	}
	if codes[0] != http.StatusOK || codes[1] != http.StatusOK {
		t.Fatalf("burst requests rejected: %v", codes)
	}
	if codes[2] != http.StatusTooManyRequests && codes[3] != http.StatusTooManyRequests {
		t.Fatalf("limiter never engaged: %v", codes)
	}
	// Health endpoints bypass the limiter.
	if rec := doJSON(t, h, "GET", "/healthz", nil, nil); rec.Code != http.StatusOK {
		t.Fatalf("healthz rate-limited: %d", rec.Code)
	}
}

func TestTokenBucketRefill(t *testing.T) {
	now := time.Unix(0, 0)
	tb := newTokenBucket(2, 1)
	tb.now = func() time.Time { return now }
	if !tb.allow() || tb.allow() {
		t.Fatal("burst-1 bucket should allow exactly one")
	}
	now = now.Add(time.Second) // refills 2 tokens, capped at burst 1
	if !tb.allow() || tb.allow() {
		t.Fatal("refill should restore exactly the burst")
	}
}

func TestRequestIDEcho(t *testing.T) {
	s := newTestServer(t, nil, Config{})
	req := httptest.NewRequest("GET", "/healthz", nil)
	req.Header.Set(requestIDHeader, "my-trace-7")
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if got := rec.Header().Get(requestIDHeader); got != "my-trace-7" {
		t.Fatalf("request id = %q, want echo", got)
	}
	rec2 := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec2, httptest.NewRequest("GET", "/healthz", nil))
	if rec2.Header().Get(requestIDHeader) == "" {
		t.Fatal("no request id assigned")
	}
}

func TestRecoverPanics(t *testing.T) {
	h := recoverPanics(discard, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panic → %d, want 500", rec.Code)
	}
}

func TestDrainRefusesSubmissions(t *testing.T) {
	s := newTestServer(t, func(ctx context.Context, spec exp.JobSpec, sched *runner.Scheduler) (*exp.JobResult, error) {
		return &exp.JobResult{Spec: spec}, nil
	}, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if rec := doJSON(t, s.Handler(), "POST", "/v1/jobs", exp.JobSpec{Experiments: []string{"fig11"}}, nil); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submit: %d, want 503", rec.Code)
	}
	if rec := doJSON(t, s.Handler(), "GET", "/readyz", nil, nil); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain readyz: %d, want 503", rec.Code)
	}
}

func TestStatsEndpoint(t *testing.T) {
	cache, err := cachedir.Open(t.TempDir(), cachedir.Options{Version: "v1"})
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, func(ctx context.Context, spec exp.JobSpec, sched *runner.Scheduler) (*exp.JobResult, error) {
		return &exp.JobResult{Spec: spec}, nil
	}, Config{Cache: cache})
	var st JobStatus
	doJSON(t, s.Handler(), "POST", "/v1/jobs", exp.JobSpec{Experiments: []string{"fig11"}}, &st)
	waitState(t, s, st.ID, JobDone)
	var stats struct {
		Parallelism int             `json:"parallelism"`
		Jobs        map[string]int  `json:"jobs"`
		Cache       *map[string]any `json:"cache"`
		Runtime     RuntimeStats    `json:"runtime"`
	}
	runtime.GC()
	if rec := doJSON(t, s.Handler(), "GET", "/v1/stats", nil, &stats); rec.Code != http.StatusOK {
		t.Fatalf("stats: %d", rec.Code)
	}
	if stats.Parallelism < 1 || stats.Jobs["done"] != 1 || stats.Cache == nil {
		t.Fatalf("stats = %+v", stats)
	}
	if rt := stats.Runtime; rt.HeapLiveBytes == 0 || rt.HeapGoalBytes < rt.HeapLiveBytes ||
		rt.GCCycles == 0 || rt.AllocBytes < rt.HeapLiveBytes {
		t.Fatalf("runtime = %+v, want a live heap under its goal, at least one GC and allocs >= live", rt)
	}
}

// TestReportByteIdentity runs a real (small) experiment through the
// daemon and checks the /report bytes equal a direct exp.RunJob render —
// the contract that lets clients diff daemon output against local ltexp
// runs. Skipped under -short (it simulates).
func TestReportByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real simulation")
	}
	spec := exp.JobSpec{Experiments: []string{"fig11"}, Scale: "small", Seed: 1}
	// Local reference: a fresh scheduler, exactly as cmd/ltexp wires it.
	localRes, err := exp.RunJob(context.Background(), spec, runner.New(4))
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := localRes.RenderText(&want); err != nil {
		t.Fatal(err)
	}

	s := newTestServer(t, nil, Config{Sched: runner.New(4)})
	var st JobStatus
	if rec := doJSON(t, s.Handler(), "POST", "/v1/jobs", spec, &st); rec.Code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", rec.Code, rec.Body.String())
	}
	waitState(t, s, st.ID, JobDone)
	req := httptest.NewRequest("GET", "/v1/jobs/"+st.ID+"/report", nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("report: %d", rec.Code)
	}
	if !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
		t.Fatalf("daemon report differs from local render:\n--- daemon ---\n%s\n--- local ---\n%s", rec.Body.Bytes(), want.Bytes())
	}
	// The JSON form parses and carries the job-scoped cell counters.
	reqJSON := httptest.NewRequest("GET", "/v1/jobs/"+st.ID+"/report?format=json", nil)
	recJSON := httptest.NewRecorder()
	s.Handler().ServeHTTP(recJSON, reqJSON)
	var envelope map[string]any
	if err := json.Unmarshal(recJSON.Body.Bytes(), &envelope); err != nil {
		t.Fatalf("json report: %v", err)
	}
	if envelope["reports"] == nil || envelope["cells"] == nil {
		t.Fatalf("json report envelope = %v", envelope)
	}
	// Same spec again: the shared scheduler serves every cell from memory.
	var st2 JobStatus
	doJSON(t, s.Handler(), "POST", "/v1/jobs", spec, &st2)
	waitState(t, s, st2.ID, JobDone)
	var got JobStatus
	doJSON(t, s.Handler(), "GET", "/v1/jobs/"+st2.ID, nil, &got)
	if got.Cells == nil || got.Cells.Executed != 0 || got.Cells.Hits == 0 {
		t.Fatalf("resubmission cells = %+v, want 0 executed", got.Cells)
	}
}

// TestPruneDropsOldestTerminal: beyond the retention bound the oldest
// terminal job records go first, live records stay whatever their age,
// and the kept records keep their submission order.
func TestPruneDropsOldestTerminal(t *testing.T) {
	m := &Manager{jobs: map[string]*Job{}, maxJobs: 3}
	for _, j := range []struct {
		id    string
		state JobState
	}{{"a", JobDone}, {"b", JobRunning}, {"c", JobFailed}, {"d", JobQueued}, {"e", JobCancelled}, {"f", JobDone}} {
		m.jobs[j.id] = &Job{ID: j.id, state: j.state}
		m.order = append(m.order, j.id)
	}
	m.pruneLocked()
	if want := []string{"b", "d", "f"}; !slices.Equal(m.order, want) {
		t.Errorf("order after prune = %v, want %v", m.order, want)
	}
	if len(m.jobs) != 3 || m.jobs["a"] != nil || m.jobs["c"] != nil || m.jobs["e"] != nil {
		t.Errorf("jobs after prune = %v, want b, d and f", m.jobs)
	}
}
