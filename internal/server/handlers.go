package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime/metrics"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/cachedir"
	"repro/internal/exp"
	"repro/internal/runner"
)

// errorBody is the uniform error envelope.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// handleSubmit accepts a JobSpec and queues it.
//
//	POST /v1/jobs  {"experiments":["fig8"],"scale":"small","seed":1,
//	                "benchmarks":["swim"],"workers":0}
//	→ 202 {"id":"j...","state":"queued",...}
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec exp.JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "bad job spec: %v", err)
		return
	}
	j, err := s.mgr.Submit(spec)
	if err != nil {
		if errors.Is(err, ErrDraining) {
			writeError(w, http.StatusServiceUnavailable, "%v", err)
			return
		}
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+j.ID)
	writeJSON(w, http.StatusAccepted, j.Status(s.cfg.Sched))
}

// handleListJobs lists retained jobs, oldest first.
func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	jobs := s.mgr.Jobs()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status(s.cfg.Sched)
	}
	writeJSON(w, http.StatusOK, struct {
		Jobs []JobStatus `json:"jobs"`
	}{out})
}

// job resolves the {id} path parameter, writing a 404 on a miss.
func (s *Server) job(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	j, ok := s.mgr.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
	}
	return j, ok
}

// handleJobStatus reports one job: lifecycle, spec, and the job-scoped
// scheduler/cache counters.
func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, j.Status(s.cfg.Sched))
}

// handleCancel cancels a job. Idempotent: cancelling a terminal job
// reports its (unchanged) state.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.mgr.Cancel(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusAccepted, j.Status(s.cfg.Sched))
}

// handleEvents streams a job's lifecycle over SSE: the job's state first,
// then a "progress" event per completed experiment step (replayed from the
// start for late subscribers), a "state" event per later transition, and a
// final "done" event carrying the terminal state. The stream writes from
// its own index into the job's progress lines, so a client that falls
// behind still receives every event.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	fl, canFlush := w.(http.Flusher)
	if !canFlush {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	// The server's ReadTimeout deadline was set when the request arrived;
	// an SSE stream legitimately outlives it, so lift the per-connection
	// deadlines for this route only.
	rc := http.NewResponseController(w)
	rc.SetReadDeadline(time.Time{})
	rc.SetWriteDeadline(time.Time{})
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	event := func(typ, data string) { fmt.Fprintf(w, "event: %s\ndata: %s\n\n", typ, data) }
	var sent JobState
	next := 0
	for {
		state, lines, changed := j.events(next)
		// Progress lines arrive only while the job runs, so a new
		// non-terminal state precedes them and a terminal one follows.
		if sent == "" || (state != sent && !state.Terminal()) {
			event("state", string(state))
			sent = state
		}
		for _, line := range lines {
			event("progress", line)
		}
		next += len(lines)
		if state.Terminal() {
			if state != sent {
				event("state", string(state))
			}
			event("done", string(state))
			fl.Flush()
			return
		}
		fl.Flush()
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		}
	}
}

// handleReport serves a finished job's report: the text bytes a local
// `ltexp` run prints (the default), or the -json envelope with
// ?format=json. 409 until the job is done.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	res := j.Result()
	if res == nil {
		writeError(w, http.StatusConflict, "job %s is %s; report available once done", j.ID, j.State())
		return
	}
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		res.RenderJSON(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	res.RenderText(w)
}

// RuntimeStats is the Go runtime's memory view in /v1/stats, read from
// runtime/metrics: the heap the last collection found live, the heap
// size the next collection is due at, collections so far, and the bytes
// allocated since the daemon started.
type RuntimeStats struct {
	HeapLiveBytes uint64 `json:"heap_live_bytes"`
	HeapGoalBytes uint64 `json:"heap_goal_bytes"`
	GCCycles      uint64 `json:"gc_cycles"`
	AllocBytes    uint64 `json:"alloc_bytes"`
}

func readRuntimeStats() RuntimeStats {
	s := []metrics.Sample{
		{Name: "/gc/heap/live:bytes"},
		{Name: "/gc/heap/goal:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	return RuntimeStats{s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64(), s[3].Value.Uint64()}
}

// handleStats reports the daemon-wide view: the shared scheduler's
// cumulative result-cell counters (trace cells live in each job's memo
// and count only in that job's status), persistent-cache counters and
// size, the job table tally, and the runtime's memory view.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	var cc *cachedir.Counters
	var size int64
	if s.cfg.Cache != nil {
		snap := s.cfg.Cache.Counters()
		cc = &snap
		size = s.cfg.Cache.Size()
	}
	writeJSON(w, http.StatusOK, struct {
		Cells       runner.Stats       `json:"cells"`
		Parallelism int                `json:"parallelism"`
		Cache       *cachedir.Counters `json:"cache,omitempty"`
		CacheBytes  int64              `json:"cache_bytes,omitempty"`
		Jobs        map[JobState]int   `json:"jobs"`
		UptimeSec   float64            `json:"uptime_s"`
		Runtime     RuntimeStats       `json:"runtime"`
	}{s.cfg.Sched.Stats(), s.cfg.Sched.Parallelism(), cc, size, s.mgr.CountByState(), s.Uptime().Seconds(), readRuntimeStats()})
}

// handleHealthz is the liveness probe: identity, uptime, and the
// persistent cache's degradation state ("ok", "degraded" — breaker
// open, running memory-only — or "none" without a cache). The daemon is
// alive in every one of those states; degraded only means slower.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	cache := "none"
	if s.cfg.Cache != nil {
		cache = "ok"
		if s.cfg.Cache.Degraded() {
			cache = "degraded"
		}
	}
	writeJSON(w, http.StatusOK, struct {
		Status       string  `json:"status"`
		Cache        string  `json:"cache"`
		Version      string  `json:"version"`
		Commit       string  `json:"commit"`
		CacheVersion string  `json:"cache_version"`
		UptimeSec    float64 `json:"uptime_s"`
	}{"ok", cache, buildinfo.Version, buildinfo.Commit(), buildinfo.CacheVersion, s.Uptime().Seconds()})
}

// handleReadyz is the readiness probe: 503 once draining.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Status string `json:"status"`
	}{"ready"})
}
